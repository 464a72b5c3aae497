// The simulated Linux kernel: task contexts, syscall dispatch, driver
// registry, kcov, KASAN, dmesg, and eBPF-style tracepoints.
//
// One Kernel instance is one booted device kernel. Everything is
// single-threaded and deterministic: given the same driver set, seed and
// syscall sequence, coverage and crash behaviour replay exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel/dmesg.h"
#include "kernel/driver.h"
#include "kernel/kasan.h"
#include "kernel/kcov.h"
#include "kernel/syscall.h"
#include "kernel/vfs.h"
#include "util/rng.h"

namespace df::kernel {

using TaskId = uint32_t;

// Who issued a syscall. The eBPF tracer filters on kHal to implement the
// paper's "system calls originating from the HAL" directional coverage.
enum class TaskOrigin { kNative, kHal, kApp, kKernel };

struct Task {
  TaskId id = 0;
  TaskOrigin origin = TaskOrigin::kNative;
  std::string name;
  bool alive = true;
  FdTable fds;
  Kcov kcov;
};

struct KernelConfig {
  std::string version = "6.6";
  uint64_t seed = 1;
  // Loop-watchdog budget per syscall; exceeding it raises a hang report.
  size_t loop_budget = 4096;
};

class Kernel {
 public:
  explicit Kernel(KernelConfig cfg = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- setup ---------------------------------------------------------------
  // Register before boot(). Returns a stable reference for configuration.
  Driver& register_driver(std::unique_ptr<Driver> drv);
  // Populates the node registry and probes every driver.
  void boot();
  // Full reboot: closes all files, resets drivers and heap, clears panic,
  // and re-probes. Tasks survive (their fds do not). Syscall counts and
  // dmesg sequence numbers are campaign-global and survive too.
  void reboot();
  bool booted() const { return booted_; }

  // --- tasks ---------------------------------------------------------------
  TaskId create_task(TaskOrigin origin, std::string name);
  void exit_task(TaskId tid);  // closes the task's fds
  Task* task(TaskId tid);

  // --- syscalls --------------------------------------------------------------
  SyscallRes syscall(TaskId tid, const SyscallReq& req);

  // --- kcov ------------------------------------------------------------------
  void kcov_enable(TaskId tid);
  void kcov_disable(TaskId tid);
  std::vector<uint64_t> kcov_collect(TaskId tid);
  // Allocation-free variant: appends the task's pending features to `out`
  // (the broker reuses one buffer across tasks and executions).
  void kcov_collect_into(TaskId tid, std::vector<uint64_t>& out);

  // --- tracepoints (eBPF attach surface) --------------------------------------
  // Hook invoked after every syscall completes. Returns an id for detach.
  using Tracepoint =
      std::function<void(const Task&, const SyscallReq&, const SyscallRes&)>;
  int attach_tracepoint(Tracepoint hook);
  void detach_tracepoint(int id);

  // Hook invoked around every driver handler invocation (open/ioctl/...):
  // enter=true immediately before the op, enter=false after it returns.
  // Installed by the execution layer for driver-handler span tracing; when
  // empty (the default) each dispatch pays only one branch.
  using DriverOpHook =
      std::function<void(std::string_view driver, const char* op, bool enter)>;
  void set_driver_op_hook(DriverOpHook hook) {
    driver_op_hook_ = std::move(hook);
  }

  // --- observability ----------------------------------------------------------
  Dmesg& dmesg() { return dmesg_; }
  const Dmesg& dmesg() const { return dmesg_; }
  Kasan& kasan() { return kasan_; }
  bool panicked() const { return dmesg_.panicked(); }

  const std::vector<std::unique_ptr<Driver>>& drivers() const {
    return drivers_;
  }
  Driver* find_driver(std::string_view name) const;
  const NodeRegistry& registry() const { return registry_; }

  uint64_t syscall_count() const { return syscall_count_; }
  uint64_t reboot_count() const { return reboot_count_; }
  std::string_view version() const { return cfg_.version; }
  size_t loop_budget() const { return cfg_.loop_budget; }
  util::Rng& rng() { return rng_; }

  // --- checkpoint support -----------------------------------------------------
  // The kernel-side cursors a campaign checkpoint must carry so a resumed
  // run hands out the same ids/addresses the uninterrupted run would have.
  // Live driver/HAL state is deliberately NOT here — checkpoints are taken
  // right after a barrier reboot, when that state is freshly reset on both
  // sides (core/fuzz/checkpoint.h).
  struct Cursors {
    util::RngState rng;
    uint64_t reboot_count = 0;
    uint64_t syscall_count = 0;
    uint64_t next_map = 0;
    uint32_t next_task = 0;
    uint64_t heap_next = 0;
  };
  Cursors cursors() const;
  void restore_cursors(const Cursors& c);

  // --- snapshot support (DESIGN.md §13) ---------------------------------------
  // Walks, in either direction (kernel/snapshot.h), the live kernel state
  // orthogonal to the Cursors block: the RNG position and the mmap handle
  // table + cursor. Campaign-cumulative counters (syscall and reboot
  // counts, dmesg sequence) are deliberately untouched — a snapshot
  // restore rewinds the device, not the campaign.
  void live_state(StateArchive& ar);
  // Walks one task's open-file table: unique File descriptions (driver,
  // path, flags, per-open driver state via Driver::file_state) plus the
  // fd -> file map (dup() sharing preserved) and the fd cursor. Loading
  // replaces the task's table without running release hooks, exactly like
  // reboot() — the drivers are wholesale-restored by the same snapshot —
  // and rejects a driver index or file index out of range, and a per-file
  // image its driver's walk does not consume exactly.
  void task_files(TaskId tid, StateArchive& ar);
  // A snapshot is only captured on a sane device, so restoring one clears
  // any panic latched since.
  void clear_panic() { dmesg_.clear_panic(); }

 private:
  friend class DriverCtx;
  void close_file(Task& task, const std::shared_ptr<File>& f);
  SyscallRes dispatch(Task& task, const SyscallReq& req);

  KernelConfig cfg_;
  util::Rng rng_;
  Dmesg dmesg_;
  Kasan kasan_;
  NodeRegistry registry_;
  std::vector<std::unique_ptr<Driver>> drivers_;
  std::unordered_map<TaskId, std::unique_ptr<Task>> tasks_;
  std::unordered_map<int, Tracepoint> tracepoints_;
  DriverOpHook driver_op_hook_;
  std::unordered_map<uint64_t, uint64_t> mappings_;  // handle -> dummy
  TaskId next_task_ = 1;
  int next_tp_ = 1;
  uint64_t next_map_ = 0x7f0000000000ull;
  uint64_t syscall_count_ = 0;
  uint64_t reboot_count_ = 0;
  bool booted_ = false;
};

}  // namespace df::kernel
