// Media codec HAL (simulated closed-source vendor codec stack).
//
// Sessions -> configure -> input buffers -> GPU-accelerated transcode via
// the gpu_mali and ion kernel drivers.
//
// Planted bug (Table II #6, device A2): for HEVC the frame-size computation
// (w * h * 3 / 2) runs in 32 bits; large-but-valid dimensions wrap it to a
// tiny value, and the next queueInput() copy overflows the heap buffer
// ("Native crash in Media HAL", heap-buffer-overflow).
//
// The transcode() "feedback" pipeline mode builds a cyclic GPU job chain —
// on firmware with the Table II #5 mali bug this hangs the kernel job loop.
#pragma once

#include <map>

#include "hal/hal_service.h"

namespace df::hal::services {

struct MediaHalBugs {
  bool hevc_size_overflow = false;  // Table II #6 (device A2)
};

class MediaHal final : public HalService {
 public:
  static constexpr uint32_t kCreateSession = 1;
  static constexpr uint32_t kConfigure = 2;
  static constexpr uint32_t kQueueInput = 3;
  static constexpr uint32_t kStart = 4;
  static constexpr uint32_t kTranscode = 5;
  static constexpr uint32_t kFlush = 6;
  static constexpr uint32_t kStop = 7;
  static constexpr uint32_t kReleaseSession = 8;

  // Codec ids.
  static constexpr uint32_t kCodecH264 = 0;
  static constexpr uint32_t kCodecHevc = 1;
  static constexpr uint32_t kCodecVp9 = 2;
  static constexpr uint32_t kCodecAv1 = 3;

  MediaHal(kernel::Kernel& kernel, MediaHalBugs bugs = {})
      : HalService(kernel, "android.hardware.media.codec@sim"), bugs_(bugs) {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.i32(mali_fd_);
    ar.i32(ion_fd_);
    ar.u32(next_session_);
    ar.map(sessions_, [&](Session& s) {
      ar.u32(s.codec);
      ar.u32(s.w);
      ar.u32(s.h);
      ar.u32(s.bitrate);
      ar.u32(s.frame_size);
      ar.b(s.configured);
      ar.b(s.started);
      ar.u32(s.mali_ctx);
      ar.u32(s.ion_id);
    });
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  struct Session {
    uint32_t codec = 0;
    uint32_t w = 0, h = 0, bitrate = 0;
    uint32_t frame_size = 0;  // bytes per input frame (possibly wrapped)
    bool configured = false;
    bool started = false;
    uint32_t mali_ctx = 0;
    uint32_t ion_id = 0;
  };

  int32_t mali_fd();
  int32_t ion_fd();

  MediaHalBugs bugs_;
  int32_t mali_fd_ = -1;
  int32_t ion_fd_ = -1;
  uint32_t next_session_ = 1;
  std::map<uint32_t, Session> sessions_;
};

}  // namespace df::hal::services
