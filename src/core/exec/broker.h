// Execution Broker (paper §IV-A): reliably executes DSL programs on a
// device, dispatching each element of the sequence to the Native executor
// (syscalls) or the HAL executor (Binder transactions), then bonds kernel
// kcov, HAL directional coverage, dmesg reports and HAL crash records into
// one uniform feedback statistic for the fuzzing engine.
#pragma once

#include <string>
#include <vector>

#include "core/exec/faults.h"
#include "device/device.h"
#include "device/snapshot.h"
#include "dsl/prog.h"
#include "kernel/dmesg.h"
#include "obs/obs.h"
#include "obs/stats_reporter.h"
#include "trace/syscall_trace.h"

namespace df::core {

struct ExecOptions {
  bool collect_cov = true;
  // Collect HAL directional syscall coverage (off for DF-NoHCov).
  bool hal_directional = true;
  // Reboot the device on any bug (kernel report or HAL crash) — the
  // paper's harness configuration.
  bool reboot_on_bug = true;
};

struct ExecResult {
  std::vector<uint64_t> features;  // uniform kernel + HAL feature ids
  std::vector<kernel::Report> kernel_reports;
  std::vector<hal::CrashRecord> hal_crashes;
  std::vector<int64_t> rets;  // per executed call (syscall ret / binder status)
  size_t calls_executed = 0;
  bool kernel_bug = false;  // any dmesg report during this execution
  bool hal_crash = false;
  bool rebooted = false;

  // Fault-injection outcome (device::FaultKind::kNone without an injector).
  // transport_error marks a *lost* execution: the program never completed
  // and produced no feedback (retries exhausted, hang, or reboot).
  device::FaultKind fault = device::FaultKind::kNone;
  bool transport_error = false;
  uint32_t retries = 0;
  // Driver-state coverage captured *before* any reboot policy ran, so crash
  // provenance records crash-time states instead of wiped post-reboot ones.
  // Empty when the execution did not reboot the device.
  std::vector<obs::DriverStateCoverage> states_at_crash;

  bool any_bug() const { return kernel_bug || hal_crash; }
};

class Broker {
 public:
  Broker(device::Device& dev, const trace::SpecTable& spec);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  ExecResult execute(const dsl::Program& prog, const ExecOptions& opt = {});

  // Fault injection (null = reliable transport, the default). With an
  // injector attached, execute() becomes the resilient transport loop:
  // per-attempt fault decision, bounded retry with exponential backoff on
  // transport errors, forced reboot on hangs/spontaneous reboots, and the
  // reboot-after-KASAN policy. At plan rate 0 the loop is bit-identical to
  // the reliable path. The injector must outlive the broker.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* fault_injector() { return fault_; }

  // Attach/detach campaign telemetry (null = off). Caches metric pointers
  // (phase.execute latency, broker.programs/calls/reboots counters labeled
  // with `label`) so execute() pays only null-checks when detached. When the
  // bundle's span tracer is enabled, also emits phase:execute + per-syscall
  // spans and installs the kernel driver-op hook for driver-handler spans.
  void attach_observability(obs::Observability* o, std::string_view label);

  device::Device& device() { return dev_; }
  uint64_t executions() const { return executions_; }
  kernel::TaskId native_task() const { return native_task_; }

  // --- snapshots (DESIGN.md §13) ---------------------------------------------
  // Snapshot capture/restore of this broker's device, keyed to its native
  // task.
  device::StateSnapshot capture_snapshot(
      const device::StateSnapshot* parent = nullptr);
  bool restore_snapshot(const device::StateSnapshot& snap,
                        std::string* error = nullptr);

 private:
  friend class CampaignCheckpoint;

  // One reliable-transport execution (the pre-fault-layer execute()).
  ExecResult execute_attempt(const dsl::Program& prog,
                             const ExecOptions& opt);
  // Resolves a handle arg to its runtime value (0 when unresolved).
  static uint64_t resolve(const std::vector<uint64_t>& results,
                          const dsl::Value& v);
  int64_t run_syscall(const dsl::Call& call,
                      const std::vector<uint64_t>& results,
                      uint64_t& produced);
  int64_t run_hal(const dsl::Call& call, const std::vector<uint64_t>& results,
                  uint64_t& produced);

  device::Device& dev_;
  trace::DirectionalTracer tracer_;
  FaultInjector* fault_ = nullptr;
  kernel::TaskId native_task_ = 0;
  // Per-attempt scratch, kept to reuse its capacity: each service's crash
  // count before the program (in dev_.services() order) and the call
  // results resource args resolve against.
  std::vector<size_t> crash_marks_;
  std::vector<uint64_t> results_;
  uint64_t executions_ = 0;

  obs::Observability* obs_ = nullptr;
  obs::Histogram* h_execute_ = nullptr;
  obs::Counter* c_programs_ = nullptr;
  obs::Counter* c_calls_ = nullptr;
  obs::Counter* c_reboots_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;  // cached only when enabled at attach
  std::string label_;
  std::vector<uint64_t> op_spans_;  // open driver-handler span ids
};

// Driver-state coverage matrices for every kernel driver, in registration
// order — the crash-provenance snapshot shape (Engine::state_coverage
// delegates here).
std::vector<obs::DriverStateCoverage> snapshot_driver_states(
    const kernel::Kernel& k);

}  // namespace df::core
