// V4L2 camera driver (simulated vendor ISP pipeline).
//
// Standard V4L2 shape: querycap, format negotiation, buffer queue, stream
// on/off. Planted bug (Table II #12): issuing S_FMT with the vendor RAW
// format while streaming is rejected with EBUSY but still flips the
// capability flags; the next QUERYCAP sees inconsistent caps and trips
// "WARNING in v4l_querycap". Requires a full negotiate/reqbufs/streamon
// prefix, then the vendor format, then querycap.
#pragma once

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct V4l2Bugs {
  bool querycap_warn = false;  // Table II #12 (device E)
};

class V4l2CamDriver final : public Driver {
 public:
  static constexpr uint64_t kIocQuerycap = 0xb001;
  static constexpr uint64_t kIocEnumFmt = 0xb002;   // u32 index
  static constexpr uint64_t kIocSetFmt = 0xb003;    // u32 fourcc, u32 w, u32 h
  static constexpr uint64_t kIocReqbufs = 0xb004;   // u32 count
  static constexpr uint64_t kIocQbuf = 0xb005;      // u32 index
  static constexpr uint64_t kIocDqbuf = 0xb006;
  static constexpr uint64_t kIocStreamOn = 0xb007;
  static constexpr uint64_t kIocStreamOff = 0xb008;

  // Supported fourcc codes; the last one is the vendor RAW format.
  static constexpr uint32_t kFmtYuyv = 0x56595559;  // 'YUYV'
  static constexpr uint32_t kFmtNv12 = 0x3231564e;  // 'NV12'
  static constexpr uint32_t kFmtMjpg = 0x47504a4d;  // 'MJPG'
  static constexpr uint32_t kFmtVraw = 0x57415256;  // 'VRAW' vendor raw

  explicit V4l2CamDriver(V4l2Bugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "v4l2_cam"; }
  std::vector<std::string> nodes() const override { return {"/dev/video0"}; }
  std::vector<std::string> state_names() const override {
    return {"open", "configured", "buffers", "streaming"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$VIDIOC_S_FMT", {{"width", 640}, {"height", 480}}}}},
        {1, 2, {{"ioctl$VIDIOC_REQBUFS", {{"count", 4}}}}},
        // STREAMON additionally requires a queued buffer, so the edge is a
        // two-call combo.
        {2, 3,
         {{"ioctl$VIDIOC_QBUF", {{"index", 0}}}, {"ioctl$VIDIOC_STREAMON"}}},
        {3, 2, {{"ioctl$VIDIOC_STREAMOFF"}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.u32(fourcc_);
    ar.u32(width_);
    ar.u32(height_);
    ar.u32(nbufs_);
    ar.u32(queued_);
    ar.b(streaming_);
    ar.b(caps_dirty_);
    ar.u32(frames_);
  }

  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override {
    const int64_t ret = ioctl_impl(ctx, f, req, in, out);
    enter_state(protocol_state());
    return ret;
  }
  int64_t read(DriverCtx& ctx, File& f, size_t n,
               std::vector<uint8_t>& out) override;
  int64_t mmap(DriverCtx& ctx, File& f, size_t len, uint64_t prot) override;

 private:
  int64_t ioctl_impl(DriverCtx& ctx, File& f, uint64_t req,
                     std::span<const uint8_t> in, std::vector<uint8_t>& out);
  // Protocol position derived from the pipeline setup flags.
  size_t protocol_state() const {
    if (streaming_) return 3;
    if (nbufs_ > 0) return 2;
    if (fourcc_ != 0) return 1;
    return 0;
  }

  uint32_t fourcc_ = 0;
  uint32_t width_ = 0, height_ = 0;
  uint32_t nbufs_ = 0;
  uint32_t queued_ = 0;
  bool streaming_ = false;
  bool caps_dirty_ = false;
  uint32_t frames_ = 0;

  V4l2Bugs bugs_;
};

}  // namespace df::kernel::drivers
