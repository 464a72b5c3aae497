// Power/USB HAL (simulated vendor charger + Type-C policy daemon).
//
// Performs the full TCPC bring-up (init -> DRP mode -> connect -> PD
// negotiation) the way a real charging policy engine does; its
// usbRoleSwap() is the userspace half of Table II #4 (tcpc WARNING on A1).
// It also pokes the rt1711 port controller, giving the fuzzer a HAL route
// to Table II #1.
#pragma once

#include "hal/hal_service.h"

namespace df::hal::services {

class PowerHal final : public HalService {
 public:
  static constexpr uint32_t kSetBoost = 1;
  static constexpr uint32_t kSetMode = 2;
  static constexpr uint32_t kUsbInit = 3;
  static constexpr uint32_t kUsbConnect = 4;
  static constexpr uint32_t kFastCharge = 5;
  static constexpr uint32_t kUsbRoleSwap = 6;
  static constexpr uint32_t kUsbDisconnect = 7;
  static constexpr uint32_t kTypecReset = 8;

  explicit PowerHal(kernel::Kernel& kernel)
      : HalService(kernel, "android.hardware.power@sim") {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.i32(tcpc_fd_);
    ar.i32(rt_fd_);
    ar.b(usb_ready_);
    ar.u32(boost_);
    ar.u32(mode_);
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  int32_t tcpc_fd();
  int32_t rt_fd();

  int32_t tcpc_fd_ = -1;
  int32_t rt_fd_ = -1;
  bool usb_ready_ = false;
  uint32_t boost_ = 0;
  uint32_t mode_ = 0;
};

}  // namespace df::hal::services
