// Vendor sensor-hub driver (simulated).
//
// Manages 16 logical sensors with enable/rate/batch controls and a sample
// FIFO. Planted bug (Table II #3): the batch path passes the user-supplied
// FIFO *nesting level* straight into a nested lock acquisition; lockdep then
// reports "BUG: looking up invalid subclass: N" for N >= 8. Gated behind an
// enabled sensor and a non-zero batch depth, so it needs a meaningful call
// sequence (the Sensors HAL batching path produces exactly that shape).
#pragma once

#include <array>

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct SensorHubBugs {
  bool lockdep_subclass = false;  // Table II #3 (device A1)
};

class SensorHubDriver final : public Driver {
 public:
  static constexpr uint64_t kIocList = 0x9001;
  static constexpr uint64_t kIocEnable = 0x9002;   // u32 id
  static constexpr uint64_t kIocDisable = 0x9003;  // u32 id
  static constexpr uint64_t kIocSetRate = 0x9004;  // u32 id, u32 hz
  static constexpr uint64_t kIocBatch = 0x9005;    // u32 id, depth, nesting
  static constexpr uint64_t kIocSelfTest = 0x9006; // u32 id

  static constexpr uint32_t kNumSensors = 16;

  explicit SensorHubDriver(SensorHubBugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "sensor_hub"; }
  std::vector<std::string> nodes() const override {
    return {"/dev/sensor_hub"};
  }
  std::vector<std::string> state_names() const override {
    return {"idle", "sensing", "batching"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$SENS_ENABLE", {{"id", 0}}}}},
        {1, 2,
         {{"ioctl$SENS_BATCH", {{"id", 0}, {"depth", 16}, {"nesting", 0}}}}},
        {1, 0, {{"ioctl$SENS_DISABLE", {{"id", 0}}}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    for (auto& s : sensors_) {
      ar.b(s.enabled);
      ar.u32(s.rate_hz);
      ar.u32(s.batch_depth);
      ar.u32(s.sample_seq);
    }
  }

  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override {
    const int64_t ret = ioctl_impl(ctx, f, req, in, out);
    enter_state(protocol_state());
    return ret;
  }
  int64_t read(DriverCtx& ctx, File& f, size_t n,
               std::vector<uint8_t>& out) override;

 private:
  int64_t ioctl_impl(DriverCtx& ctx, File& f, uint64_t req,
                     std::span<const uint8_t> in, std::vector<uint8_t>& out);
  // Hub-level position: any sensor batching > any sensor enabled > idle.
  size_t protocol_state() const {
    bool sensing = false;
    for (const auto& s : sensors_) {
      if (s.enabled && s.batch_depth > 0) return 2;
      sensing = sensing || s.enabled;
    }
    return sensing ? 1 : 0;
  }

  struct Sensor {
    bool enabled = false;
    uint32_t rate_hz = 0;
    uint32_t batch_depth = 0;
    uint32_t sample_seq = 0;
  };

  SensorHubBugs bugs_;
  std::array<Sensor, kNumSensors> sensors_{};
};

}  // namespace df::kernel::drivers
