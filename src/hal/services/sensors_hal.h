// Sensors HAL (simulated vendor sensor service).
//
// Drives the sensor_hub kernel driver: activate, rate, batching, polling.
// The batch() method forwards its `fifoLevels` argument into the kernel's
// nested-lock depth — on device A1 firmware that is the userspace half of
// the Table II #3 lockdep BUG.
#pragma once

#include "hal/hal_service.h"

namespace df::hal::services {

class SensorsHal final : public HalService {
 public:
  static constexpr uint32_t kGetSensorList = 1;
  static constexpr uint32_t kActivate = 2;
  static constexpr uint32_t kSetDelay = 3;
  static constexpr uint32_t kBatch = 4;
  static constexpr uint32_t kPoll = 5;
  static constexpr uint32_t kSelfTest = 6;

  explicit SensorsHal(kernel::Kernel& kernel)
      : HalService(kernel, "android.hardware.sensors@sim") {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override { ar.i32(hub_fd_); }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  int32_t hub_fd();

  int32_t hub_fd_ = -1;
};

}  // namespace df::hal::services
