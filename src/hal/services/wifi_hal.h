// Wi-Fi HAL (simulated vendor wlan supplicant backend).
//
// Drives the wifi_rate kernel driver with vendor knowledge of valid rate
// tables, BSS indices and power modes — knowledge a syscall-description
// fuzzer lacks. Its legacy-compat path (setPowerSave(2) + updateRateMask)
// is the userspace half of Table II #10 (rate_control_rate_init WARNING on
// device C2).
#pragma once

#include "hal/hal_service.h"

namespace df::hal::services {

class WifiHal final : public HalService {
 public:
  static constexpr uint32_t kScan = 1;
  static constexpr uint32_t kConnect = 2;        // bss index
  static constexpr uint32_t kDisconnect = 3;
  static constexpr uint32_t kSetPowerSave = 4;   // mode 0..3
  static constexpr uint32_t kSetRateMask = 5;    // count + u16 rates
  static constexpr uint32_t kGetLinkInfo = 6;

  explicit WifiHal(kernel::Kernel& kernel)
      : HalService(kernel, "android.hardware.wifi@sim") {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.i32(wifi_fd_);
    ar.b(scanned_);
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  int32_t wifi_fd();

  int32_t wifi_fd_ = -1;
  bool scanned_ = false;
};

}  // namespace df::hal::services
