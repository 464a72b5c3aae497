// Graphics composer HAL (simulated closed-source vendor composer).
//
// Layers -> buffers -> composition, backed by the drm_gpu and ion kernel
// drivers. Planted bug (Table II #2, device A1): a layer whose
// stride * height overflows 32 bits passes the buffer-size check; the
// composition blit then writes past the allocation and the HAL process
// segfaults ("Native crash in Graphics HAL").
#pragma once

#include <map>

#include "hal/hal_service.h"

namespace df::hal::services {

struct GraphicsHalBugs {
  bool composite_overflow = false;  // Table II #2 (device A1)
};

class GraphicsHal final : public HalService {
 public:
  // Method codes.
  static constexpr uint32_t kCreateLayer = 1;
  static constexpr uint32_t kSetLayerBuffer = 2;
  static constexpr uint32_t kComposite = 3;
  static constexpr uint32_t kDestroyLayer = 4;
  static constexpr uint32_t kSetColorMode = 5;
  static constexpr uint32_t kGetDisplayInfo = 6;
  static constexpr uint32_t kSetVsync = 7;

  GraphicsHal(kernel::Kernel& kernel, GraphicsHalBugs bugs = {})
      : HalService(kernel, "android.hardware.graphics.composer@sim"),
        bugs_(bugs) {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.i32(drm_fd_);
    ar.i32(ion_fd_);
    ar.u32(next_layer_);
    ar.u32(color_mode_);
    ar.b(vsync_on_);
    ar.map(layers_, [&](Layer& l) {
      ar.u32(l.w);
      ar.u32(l.h);
      ar.u32(l.format);
      ar.u32(l.stride);
      ar.b(l.buffer_set);
      ar.u32(l.bo_handle);
      ar.u32(l.ion_id);
    });
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  struct Layer {
    uint32_t w = 0, h = 0, format = 0;
    uint32_t stride = 0;
    bool buffer_set = false;
    uint32_t bo_handle = 0;
    uint32_t ion_id = 0;
  };

  int32_t drm_fd() ;
  int32_t ion_fd();

  GraphicsHalBugs bugs_;
  int32_t drm_fd_ = -1;
  int32_t ion_fd_ = -1;
  uint32_t next_layer_ = 1;
  uint32_t color_mode_ = 0;
  bool vsync_on_ = false;
  std::map<uint32_t, Layer> layers_;
};

}  // namespace df::hal::services
