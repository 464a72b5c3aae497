// Driver framework for the simulated kernel.
//
// A Driver is a file_operations-style object: the kernel routes syscalls on
// its device nodes (or socket protocols) to the virtual ops below. Drivers
// are written as *gated state machines*: deep blocks only execute after a
// realistic multi-call protocol, which is exactly the property that makes
// proprietary drivers hard for syscall-only fuzzers and reachable through
// the HAL (the paper's core premise).
//
// All driver-visible kernel services (coverage, kmalloc/KASAN, WARN/BUG,
// watchdog) flow through DriverCtx so that every effect is attributed to a
// task and a driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/kasan.h"
#include "kernel/snapshot.h"
#include "kernel/syscall.h"
#include "util/rng.h"

namespace df::kernel {

class Kernel;
class Driver;
struct Task;

// One open file description (regular device node or socket). Shared between
// fds on dup(). Driver-private per-open state lives in `priv`.
struct File {
  Driver* drv = nullptr;
  std::string path;           // "/dev/..." or "sock:<family>:<proto>"
  uint64_t flags = 0;         // open flags
  uint64_t pos = 0;           // lseek position
  bool is_sock = false;
  uint64_t sock_type = 0;
  uint64_t sock_proto = 0;
  std::shared_ptr<void> priv;

  // Typed accessor for driver-private state.
  template <typename T>
  T* state() const {
    return static_cast<T*>(priv.get());
  }
  template <typename T, typename... Args>
  T* make_state(Args&&... args) {
    auto p = std::make_shared<T>(std::forward<Args>(args)...);
    T* raw = p.get();
    priv = std::move(p);
    return raw;
  }
};

// Kernel services exposed to driver code for the duration of one syscall.
class DriverCtx {
 public:
  DriverCtx(Kernel& kernel, Task& task, Driver& driver);

  // --- coverage -----------------------------------------------------------
  // Records basic block `block` of the current driver in the task's kcov
  // buffer.
  void cov(uint64_t block);
  // Parametric block: base + sub encodes per-command / per-state blocks.
  void covp(uint64_t base, uint64_t sub) { cov(base * 1024 + sub); }

  // --- memory (KASAN-checked) --------------------------------------------
  HeapPtr kmalloc(size_t size, std::string_view tag);
  void kfree(HeapPtr p, std::string_view site);
  bool mem_read(HeapPtr p, size_t off, std::span<uint8_t> dst,
                std::string_view site);
  bool mem_write(HeapPtr p, size_t off, std::span<const uint8_t> src,
                 std::string_view site);
  bool mem_check(HeapPtr p, size_t off, size_t len, Access kind,
                 std::string_view site);

  // --- reporting ----------------------------------------------------------
  void warn(std::string_view site, std::string_view detail = {});
  void bug(std::string_view message);
  void kasan_report(std::string_view bug_class, std::string_view site,
                    std::string_view detail = {});

  // --- watchdog -----------------------------------------------------------
  // Call inside loops. Returns false once the per-syscall iteration budget
  // is exhausted; a hung-task report has then been raised for `site` and the
  // driver must bail out.
  bool loop_guard(std::string_view site);

  // --- lockdep ------------------------------------------------------------
  // Validates a lock nesting subclass like the kernel's lockdep facility;
  // subclass >= 8 raises "BUG: looking up invalid subclass: N".
  bool lock_acquire_nested(uint32_t subclass, std::string_view lock_name);

  Kernel& kernel() { return kernel_; }
  Task& task() { return task_; }
  Driver& driver() { return driver_; }
  util::Rng& rng();

 private:
  Kernel& kernel_;
  Task& task_;
  Driver& driver_;
  size_t loop_iters_ = 0;
  bool hang_reported_ = false;
};

// --- statically declared state graphs --------------------------------------
// A driver can export its protocol-state machine *without execution*: which
// DSL call moves it from state `from` to state `to`, and which argument
// values make that call take the transition instead of an error path. The
// reachability planner (src/analysis) turns these tables into shortest
// call-sequence plans for states a campaign has never visited.

// Pins one named parameter of a plan call to a concrete value. Scalar
// params use `value`; blob/string params use `bytes` (zero-filled to
// `value` bytes when `bytes` is empty and `value` > 0).
struct TransitionHint {
  std::string param;
  uint64_t value = 0;
  std::vector<uint8_t> bytes;

  TransitionHint() = default;
  TransitionHint(std::string p, uint64_t v, std::vector<uint8_t> b = {})
      : param(std::move(p)), value(v), bytes(std::move(b)) {}
};

// One call of a plan: a DSL description name (core/descriptions.cc) plus
// the argument pins required for the success path. The leading handle
// argument is bound at materialization to the producer for `instance` —
// multi-resource protocols (l2cap's listener + connecting socket) number
// their resources so plan calls land on the right one; single-resource
// plans leave the default 0.
struct PlanCall {
  std::string call;
  std::vector<TransitionHint> hints;
  size_t instance = 0;

  PlanCall() = default;
  PlanCall(std::string c, std::vector<TransitionHint> h = {},  // NOLINT
           size_t inst = 0)
      : call(std::move(c)), hints(std::move(h)), instance(inst) {}
};

// One edge of the declared graph. `steps` is the call sequence effecting
// the edge — usually a single call, occasionally a short combo (e.g. V4L2
// needs QBUF before STREAMON to leave the buffers state).
struct DeclaredTransition {
  size_t from = 0;
  size_t to = 0;
  std::vector<PlanCall> steps;

  DeclaredTransition() = default;
  DeclaredTransition(size_t f, size_t t, std::vector<PlanCall> s)
      : from(f), to(t), steps(std::move(s)) {}
};

class Driver {
 public:
  struct SockTriple {
    uint64_t family = 0;
    uint64_t type = 0;
    uint64_t proto = 0;
  };

  virtual ~Driver() = default;

  virtual std::string_view name() const = 0;
  // Device nodes this driver serves, e.g. {"/dev/rt1711"}.
  virtual std::vector<std::string> nodes() const { return {}; }
  // Socket (family, type, protocol) triples this driver serves.
  virtual std::vector<SockTriple> socket_protos() const { return {}; }

  // Called once at boot (and again after every reboot).
  virtual void probe(DriverCtx&) {}
  // Drop all driver state (device reboot). Must restore boot-time state.
  virtual void reset() {}

  // --- file ops; default implementations return sensible errnos ----------
  virtual int64_t open(DriverCtx&, File&) { return 0; }
  virtual void release(DriverCtx&, File&) {}
  virtual int64_t ioctl(DriverCtx&, File&, uint64_t /*req*/,
                        std::span<const uint8_t> /*in*/,
                        std::vector<uint8_t>& /*out*/) {
    return err::kENOTTY;
  }
  virtual int64_t read(DriverCtx&, File&, size_t /*n*/,
                       std::vector<uint8_t>& /*out*/) {
    return err::kEINVAL;
  }
  virtual int64_t write(DriverCtx&, File&, std::span<const uint8_t>) {
    return err::kEINVAL;
  }
  virtual int64_t mmap(DriverCtx&, File&, size_t /*len*/, uint64_t /*prot*/) {
    return err::kENODEV;
  }
  virtual int64_t poll(DriverCtx&, File&, uint64_t /*events*/) { return 0; }

  // --- socket ops ---------------------------------------------------------
  virtual int64_t sock_create(DriverCtx&, File&) { return err::kEPROTO; }
  virtual int64_t bind(DriverCtx&, File&, std::span<const uint8_t>) {
    return err::kEOPNOTSUPP;
  }
  virtual int64_t connect(DriverCtx&, File&, std::span<const uint8_t>) {
    return err::kEOPNOTSUPP;
  }
  virtual int64_t listen(DriverCtx&, File&, uint64_t /*backlog*/) {
    return err::kEOPNOTSUPP;
  }
  // On success the driver fills `child` (a fresh socket File on the same
  // driver) and returns 0; the kernel then assigns the new fd.
  virtual int64_t accept(DriverCtx&, File& /*listener*/, File& /*child*/) {
    return err::kEOPNOTSUPP;
  }
  virtual int64_t setsockopt(DriverCtx&, File&, uint64_t /*level*/,
                             uint64_t /*opt*/, std::span<const uint8_t>) {
    return err::kEOPNOTSUPP;
  }
  virtual int64_t getsockopt(DriverCtx&, File&, uint64_t /*level*/,
                             uint64_t /*opt*/, std::vector<uint8_t>&) {
    return err::kEOPNOTSUPP;
  }
  virtual int64_t sendmsg(DriverCtx&, File&, std::span<const uint8_t>) {
    return err::kEOPNOTSUPP;
  }
  virtual int64_t recvmsg(DriverCtx&, File&, size_t /*n*/,
                          std::vector<uint8_t>&) {
    return err::kEOPNOTSUPP;
  }

  // Assigned by the kernel at registration; used for coverage attribution.
  uint16_t driver_id() const { return driver_id_; }

  // --- state-machine introspection ----------------------------------------
  // Every gated state machine reports its protocol position through
  // enter_state(); the base class tallies campaign-cumulative per-state
  // visit counts and a transition matrix — the observability counterpart of
  // the paper's "deep block" claim. State 0 is the boot/initial state.
  //
  // Names of the protocol states, index == state id. Empty (the default)
  // means the driver does not expose a state machine.
  virtual std::vector<std::string> state_names() const { return {}; }

  // (Re)sizes the tallies from state_names() and counts the boot-time entry
  // into state 0 *without* recording a transition — a reboot is not a
  // protocol transition. Called by the kernel at boot() and reboot();
  // tallies deliberately survive reboots (they are campaign-cumulative).
  void state_machine_boot();

  size_t current_state() const { return cur_state_; }
  const std::vector<uint64_t>& state_visits() const { return state_visits_; }
  // Row-major transition counts: matrix[from * n + to], n = state count.
  const std::vector<uint64_t>& state_matrix() const { return state_matrix_; }
  // Distinct states entered at least once (kept current by the tallies'
  // writers, so reading it is free).
  size_t states_visited() const { return states_visited_; }
  uint64_t transitions_observed() const;  // distinct (from, to) pairs seen

  // Static declaration of the same machine: edges with the DSL calls (and
  // argument pins) that take them. Indices refer to state_names(). Empty
  // (the default) means the driver declares no graph; drivers with a state
  // machine should keep this in sync with their enter_state() calls.
  virtual std::vector<DeclaredTransition> declared_transitions() const {
    return {};
  }

  // --- snapshot support (DESIGN.md §13) -------------------------------------
  // One walk over the driver's *live* protocol state, in either direction
  // (kernel/snapshot.h): every field reset() would wipe, plus per-boot
  // fields a reboot keeps (rt1711's probe counter), each named once. A
  // snapshot restore loads right after reset(); a checkpoint resume loads
  // over a freshly rebooted driver. Campaign-cumulative tallies
  // (state_visits/state_matrix) and cur_state_ are handled by the snapshot
  // layer itself — do not walk them here. The per-driver property test
  // (tests/property) catches a walk that forgets a field.
  virtual void state(StateArchive&) {}
  // Per-open-file private state (File::priv), walked once per unique File
  // owned by this driver. Drivers without per-open state (plain ioctl
  // devices) keep the no-op default. Loading may also re-link global side
  // tables that point into File priv (l2cap's listener map).
  virtual void file_state(File&, StateArchive&) {}

  // Snapshot support: repositions the live state machine without touching
  // the campaign-cumulative tallies (a restore is not a protocol
  // transition, exactly like a reboot is not one). Returns false and
  // changes nothing unless `s` is one of the driver's states (0 for a
  // driver without a state machine) — the rule restore_state_tallies()
  // applies to checkpoints.
  [[nodiscard]] bool restore_current_state(size_t s) {
    if (s >= std::max<size_t>(state_visits_.size(), 1)) return false;
    cur_state_ = s;
    return true;
  }

  // Checkpoint support: restores the campaign-cumulative tallies verbatim
  // (core/fuzz/checkpoint.h). Returns false and changes nothing unless the
  // vectors match state_names() and `cur` is one of its states (0 for a
  // driver without a state machine), so a corrupted checkpoint is rejected
  // instead of resuming with stale tallies.
  [[nodiscard]] bool restore_state_tallies(size_t cur,
                                           std::vector<uint64_t> visits,
                                           std::vector<uint64_t> matrix) {
    if (visits.size() != state_visits_.size() ||
        matrix.size() != state_matrix_.size() ||
        cur >= std::max<size_t>(visits.size(), 1)) {
      return false;
    }
    cur_state_ = cur;
    state_visits_ = std::move(visits);
    state_matrix_ = std::move(matrix);
    states_visited_ = static_cast<size_t>(std::count_if(
        state_visits_.begin(), state_visits_.end(),
        [](uint64_t v) { return v > 0; }));
    return true;
  }

 protected:
  // Driver code calls this whenever the protocol state machine moves (or
  // re-enters a state). No-op before state_machine_boot() or for out-of-
  // range indices, so drivers stay usable without a booted kernel.
  void enter_state(size_t s);

 private:
  friend class Kernel;
  uint16_t driver_id_ = 0;
  size_t cur_state_ = 0;
  size_t states_visited_ = 0;  // nonzero entries of state_visits_
  std::vector<uint64_t> state_visits_;
  std::vector<uint64_t> state_matrix_;
};

// Helpers for little-endian scalar extraction from syscall payloads —
// drivers parse user buffers with these.
uint64_t le_u64(std::span<const uint8_t> b, size_t off);
uint32_t le_u32(std::span<const uint8_t> b, size_t off);
uint16_t le_u16(std::span<const uint8_t> b, size_t off);
void put_u64(std::vector<uint8_t>& b, uint64_t v);
void put_u32(std::vector<uint8_t>& b, uint32_t v);
void put_u16(std::vector<uint8_t>& b, uint16_t v);

}  // namespace df::kernel
