// Type-C Port Controller core (simulated vendor TCPC class driver).
//
// A deeper state machine than rt1711: INIT -> mode select -> partner connect
// -> PD contract negotiation -> role swap / disconnect. Planted bug
// (Table II #4): a power-role swap issued in DRP mode while an explicit PD
// contract above 5 V is live and the swap direction equals the current role
// trips "WARNING in tcpc_role_swap". Five ordered, value-constrained calls —
// effectively unreachable for description-less syscall fuzzing, but the
// Power HAL's usbRoleSwap() path performs the prefix naturally.
#pragma once

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct TcpcBugs {
  bool role_swap_warn = false;  // Table II #4 (device A1)
};

class TcpcDriver final : public Driver {
 public:
  static constexpr uint64_t kIocInit = 0x5470;
  static constexpr uint64_t kIocSetMode = 0x5471;      // u32: 0 snk 1 src 2 drp
  static constexpr uint64_t kIocConnect = 0x5472;      // u32 partner 0..3
  static constexpr uint64_t kIocPdNegotiate = 0x5473;  // u32 mv, u32 ma
  static constexpr uint64_t kIocRoleSwap = 0x5474;     // u32 target role
  static constexpr uint64_t kIocDisconnect = 0x5475;
  static constexpr uint64_t kIocGetState = 0x5476;
  static constexpr uint64_t kIocSetAlert = 0x5477;     // u32 mask

  explicit TcpcDriver(TcpcBugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "tcpc_core"; }
  std::vector<std::string> nodes() const override { return {"/dev/tcpc"}; }
  std::vector<std::string> state_names() const override {
    return {"uninit", "idle", "connected", "contract"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$TCPC_INIT"}}},
        {1, 2, {{"ioctl$TCPC_CONNECT", {{"partner", 0}}}}},
        {2, 3, {{"ioctl$TCPC_PD_NEGOTIATE", {{"mv", 5000}, {"ma", 1000}}}}},
        {2, 1, {{"ioctl$TCPC_DISCONNECT"}}},
        {3, 1, {{"ioctl$TCPC_DISCONNECT"}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.enumeration(st_);
    ar.u32(mode_);
    ar.u32(role_);
    ar.u32(partner_);
    ar.u32(contract_mv_);
    ar.u32(contract_ma_);
    ar.u32(alert_mask_);
    ar.u32(swaps_since_connect_);
  }

  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override;

 private:
  enum class St { kUninit, kIdle, kConnected, kContract };

  void track_st() { enter_state(static_cast<size_t>(st_)); }

  TcpcBugs bugs_;
  St st_ = St::kUninit;
  uint32_t mode_ = 0;      // 0 sink, 1 source, 2 drp
  uint32_t role_ = 0;      // current power role: 0 sink, 1 source
  uint32_t partner_ = 0;
  uint32_t contract_mv_ = 0;
  uint32_t contract_ma_ = 0;
  uint32_t alert_mask_ = 0;
  uint32_t swaps_since_connect_ = 0;
};

}  // namespace df::kernel::drivers
