// Lights HAL (simulated). Pure-userspace vendor blob managing LED state —
// included to model HALs whose behaviour is invisible to kernel coverage,
// which is precisely the case cross-boundary feedback (directional HAL
// syscall coverage) cannot help with and kernel fuzzers cannot see at all.
#pragma once

#include <array>

#include "hal/hal_service.h"

namespace df::hal::services {

class LightHal final : public HalService {
 public:
  static constexpr uint32_t kSetLight = 1;
  static constexpr uint32_t kGetSupported = 2;
  static constexpr uint32_t kBlink = 3;

  explicit LightHal(kernel::Kernel& kernel)
      : HalService(kernel, "android.hardware.light@sim") {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    for (auto& l : lights_) {
      ar.u32(l.argb);
      ar.u32(l.mode);
    }
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  struct Light {
    uint32_t argb = 0;
    uint32_t mode = 0;
  };
  std::array<Light, 4> lights_{};  // backlight, battery, notif, attention
};

}  // namespace df::hal::services
