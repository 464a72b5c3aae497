// Camera provider HAL (simulated closed-source vendor camera stack).
//
// Open -> stream configuration -> capture, backed by the v4l2_cam and ion
// kernel drivers.
//
// Planted bug (Table II #9, device C1): the vendor stream teardown path
// (stopStreams, or configureStreams with zero streams under ZSL) clears the
// stream list but keeps the session marked configured; the next capture
// request dereferences the (absent) stream list and the HAL segfaults
// ("Native crash in Camera HAL").
//
// On device E (no crash bug) the setVendorFormat path forwards the vendor
// RAW fourcc to the kernel even while streaming, which is the userspace half
// of the Table II #12 v4l_querycap kernel WARNING.
#pragma once

#include <map>

#include "hal/hal_service.h"

namespace df::hal::services {

struct CameraHalBugs {
  bool zsl_null_config = false;  // Table II #9 (device C1)
};

class CameraHal final : public HalService {
 public:
  static constexpr uint32_t kOpenCamera = 1;
  static constexpr uint32_t kConfigureStreams = 2;
  static constexpr uint32_t kSetParam = 3;
  static constexpr uint32_t kCapture = 4;
  static constexpr uint32_t kSetVendorFormat = 5;
  static constexpr uint32_t kGetCapabilities = 6;
  static constexpr uint32_t kCloseCamera = 7;
  static constexpr uint32_t kStopStreams = 8;

  CameraHal(kernel::Kernel& kernel, CameraHalBugs bugs = {})
      : HalService(kernel, "android.hardware.camera.provider@sim"),
        bugs_(bugs) {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.i32(video_fd_);
    ar.i32(ion_fd_);
    ar.u32(next_cam_);
    ar.map(cams_, [&](Camera& c) {
      ar.u32(c.sensor_id);
      ar.u32(c.streams);
      ar.u32(c.w);
      ar.u32(c.h);
      ar.b(c.zsl);
      ar.b(c.streaming);
      ar.u32(c.ion_id);
    });
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  struct Camera {
    uint32_t sensor_id = 0;
    uint32_t streams = 0;
    uint32_t w = 0, h = 0;
    bool zsl = false;
    bool streaming = false;
    uint32_t ion_id = 0;
  };

  int32_t video_fd();
  int32_t ion_fd();

  CameraHalBugs bugs_;
  int32_t video_fd_ = -1;
  int32_t ion_fd_ = -1;
  uint32_t next_cam_ = 1;
  std::map<uint32_t, Camera> cams_;
};

}  // namespace df::hal::services
