// Vendor Wi-Fi driver with mac80211-style rate control (simulated).
//
// Scan -> (optional power/compat tuning) -> supported-rates table -> assoc.
// Planted bug (Table II #10): with the legacy "11b compat" power mode set,
// the vendor path accepts an *empty* supported-rates table; association then
// runs rate_control_rate_init over zero rates and trips
// "WARNING in rate_control_rate_init".
#pragma once

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct WifiRateBugs {
  bool empty_rates_warn = false;  // Table II #10 (device C2)
};

class WifiRateDriver final : public Driver {
 public:
  static constexpr uint64_t kIocScan = 0xa001;
  static constexpr uint64_t kIocSetRates = 0xa002;  // u32 count, u16 rates[]
  static constexpr uint64_t kIocAssoc = 0xa003;     // u32 bss index
  static constexpr uint64_t kIocDisassoc = 0xa004;
  static constexpr uint64_t kIocSetPower = 0xa005;  // u32 mode 0..3
  static constexpr uint64_t kIocGetLink = 0xa006;

  explicit WifiRateDriver(WifiRateBugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "wifi_rate"; }
  std::vector<std::string> nodes() const override { return {"/dev/wifi0"}; }
  std::vector<std::string> state_names() const override {
    return {"idle", "scanned", "rates_set", "associated"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$WIFI_SCAN"}}},
        // One rate entry, 2 (1 Mbps in 500 kbps units) little-endian.
        {1, 2,
         {{"ioctl$WIFI_SET_RATES", {{"count", 1}, {"rates", 0, {0x02, 0x00}}}}}},
        {2, 3, {{"ioctl$WIFI_ASSOC", {{"bss", 0}}}}},
        {3, 2, {{"ioctl$WIFI_DISASSOC"}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.u32(scanned_bss_);
    ar.u32(rate_count_);
    ar.b(rates_set_);
    ar.u32(power_mode_);
    ar.b(associated_);
  }

  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override {
    const int64_t ret = ioctl_impl(ctx, f, req, in, out);
    enter_state(protocol_state());
    return ret;
  }

 private:
  int64_t ioctl_impl(DriverCtx& ctx, File& f, uint64_t req,
                     std::span<const uint8_t> in, std::vector<uint8_t>& out);
  // Protocol position derived from the connection-setup flags.
  size_t protocol_state() const {
    if (associated_) return 3;
    if (rates_set_) return 2;
    if (scanned_bss_ > 0) return 1;
    return 0;
  }

  uint32_t scanned_bss_ = 0;   // results of the last scan
  uint32_t rate_count_ = 0;
  bool rates_set_ = false;
  uint32_t power_mode_ = 0;
  bool associated_ = false;

  WifiRateBugs bugs_;
};

}  // namespace df::kernel::drivers
