// Difuze baseline (paper §V-C2, commit 3290997 + MangoFuzz on real
// hardware).
//
// Interface-aware but *generation-based and feedback-free*: a static
// "analysis" pass extracts each driver's ioctl interface (command codes and
// argument structures — here, the same ground-truth the authored
// descriptions encode), and the MangoFuzz-style executor then replays
// random well-formed ioctl invocations against the device nodes. No
// coverage guidance, no corpus, no HAL access. Coverage is recorded purely
// for measurement, mirroring how the paper plots Difuze in Fig. 5.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/exec/broker.h"
#include "core/fuzz/crash.h"
#include "device/device.h"
#include "dsl/descr.h"

namespace df::baseline {

class DifuzeFuzzer {
 public:
  DifuzeFuzzer(device::Device& dev, uint64_t seed);

  // Static interface extraction. Returns the number of ioctl interfaces
  // recovered (the paper reports 285 / 232 for devices A1 / A2 with the
  // original tooling; our simulated drivers expose fewer).
  size_t setup();

  void run(uint64_t executions);
  void step();

  uint64_t executions() const { return exec_count_; }
  size_t kernel_coverage() const { return kernel_features_.size(); }
  size_t extracted_interfaces() const { return ioctls_.size(); }
  const core::CrashLog& crashes() const { return crash_log_; }

 private:
  dsl::Program generate();

  device::Device& dev_;
  util::Rng rng_;
  dsl::CallTable table_;
  trace::SpecTable spec_;
  std::unique_ptr<core::Broker> broker_;
  // Extraction output: open call + its ioctl set, per device node.
  struct Iface {
    const dsl::CallDesc* open = nullptr;
    std::vector<const dsl::CallDesc*> ioctls;
  };
  std::vector<Iface> nodes_;
  std::vector<const dsl::CallDesc*> ioctls_;  // flat extraction list
  std::unordered_set<uint64_t> kernel_features_;
  core::CrashLog crash_log_;
  uint64_t exec_count_ = 0;
};

}  // namespace df::baseline
