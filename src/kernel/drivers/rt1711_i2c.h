// Richtek RT1711 Type-C port-controller driver (simulated).
//
// Models the vendor rt1711h I2C driver found on the Xiaomi dev boards:
// attach/detach CC logic, VBUS control, alert masking, and a chip-reset path
// that re-enters the probe routine. Planted bug (Table II #1): resetting the
// chip while a partner is attached re-probes with stale CC state and trips
// "WARNING in rt1711_i2c_probe". The trigger is shallow (open + 2 ioctls),
// which is why Syzkaller also finds this one in the paper.
#pragma once

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct Rt1711Bugs {
  bool probe_warn = false;  // Table II #1 (device A1)
};

class Rt1711Driver final : public Driver {
 public:
  static constexpr uint64_t kIocAttach = 0x7401;
  static constexpr uint64_t kIocDetach = 0x7402;
  static constexpr uint64_t kIocReset = 0x7403;
  static constexpr uint64_t kIocGetStatus = 0x7404;
  static constexpr uint64_t kIocSetCc = 0x7405;
  static constexpr uint64_t kIocVbus = 0x7406;
  static constexpr uint64_t kIocAlert = 0x7407;

  explicit Rt1711Driver(Rt1711Bugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "rt1711_i2c"; }
  std::vector<std::string> nodes() const override { return {"/dev/rt1711"}; }
  std::vector<std::string> state_names() const override {
    return {"idle", "attached", "alerting"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$RT1711_ATTACH", {{"mode", 1}}}}},
        {1, 0, {{"ioctl$RT1711_DETACH"}}},
        {1, 2, {{"ioctl$RT1711_ALERT", {{"mask", 1}}}}},
        {2, 1, {{"read$rt1711", {{"size", 4}}}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.enumeration(chip_);
    ar.u32(mode_);
    ar.u32(cc1_);
    ar.u32(cc2_);
    ar.u32(vbus_mv_);
    ar.u32(alert_mask_);
    ar.u32(probe_count_);  // per-boot, but part of the observable state
  }

  int64_t open(DriverCtx& ctx, File& f) override;
  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override;
  int64_t read(DriverCtx& ctx, File& f, size_t n,
               std::vector<uint8_t>& out) override;

 private:
  enum class Chip { kIdle, kAttached, kAlerting };

  void do_probe(DriverCtx& ctx);
  void track_chip() { enter_state(static_cast<size_t>(chip_)); }

  Rt1711Bugs bugs_;
  Chip chip_ = Chip::kIdle;
  uint32_t mode_ = 0;      // 1=sink 2=source 3=drp
  uint32_t cc1_ = 0, cc2_ = 0;
  uint32_t vbus_mv_ = 0;
  uint32_t alert_mask_ = 0;
  uint32_t probe_count_ = 0;
};

}  // namespace df::kernel::drivers
