// Bluetooth HAL (simulated vendor BT stack: libbt + profile glue).
//
// Drives both Bluetooth kernel surfaces: the raw HCI socket (adapter
// lifecycle, vendor codec commands) and L2CAP profile sockets (listen /
// connect / accept / data / teardown). On the relevant device firmwares its
// perfectly ordinary call patterns are the userspace half of three Table II
// kernel bugs: #7 (codec-count OOB), #8 (disconnect-while-connecting WARN)
// and #11 (accept-queue use-after-free on close ordering).
#pragma once

#include <map>

#include "hal/hal_service.h"

namespace df::hal::services {

class BtHal final : public HalService {
 public:
  static constexpr uint32_t kEnable = 1;
  static constexpr uint32_t kDisable = 2;
  static constexpr uint32_t kSetScanMode = 3;
  static constexpr uint32_t kSetCodecs = 4;
  static constexpr uint32_t kReadCodecs = 5;
  static constexpr uint32_t kListenProfile = 6;
  static constexpr uint32_t kConnectProfile = 7;
  static constexpr uint32_t kAcceptProfile = 8;
  static constexpr uint32_t kSendData = 9;
  static constexpr uint32_t kDisconnectProfile = 10;
  static constexpr uint32_t kCloseProfile = 11;
  static constexpr uint32_t kCleanup = 12;

  explicit BtHal(kernel::Kernel& kernel)
      : HalService(kernel, "android.hardware.bluetooth@sim") {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.i32(hci_fd_);
    ar.b(enabled_);
    ar.u32(next_profile_);
    ar.map(profiles_, [&](Profile& p) {
      ar.i32(p.fd);
      ar.b(p.listener);
      ar.b(p.configured);
      ar.u16(p.psm);
    });
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  struct Profile {
    int32_t fd = -1;
    bool listener = false;
    bool configured = false;
    uint16_t psm = 0;
  };

  int64_t hci_cmd(uint16_t opcode, std::span<const uint8_t> params);

  int32_t hci_fd_ = -1;
  bool enabled_ = false;
  uint32_t next_profile_ = 1;
  std::map<uint32_t, Profile> profiles_;
};

}  // namespace df::hal::services
