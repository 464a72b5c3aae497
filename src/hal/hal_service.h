// HAL service base class.
//
// Each HalService models one closed-source vendor HAL process: it owns a
// kernel task with TaskOrigin::kHal (so the eBPF tracer can attribute its
// syscalls), translates Binder transactions into proprietary native logic,
// and talks to kernel drivers through real (simulated) syscalls.
//
// "Native crashes" — the HAL bug class from Table II — are modelled as
// HalCrash exceptions thrown from native code; transact() converts them into
// a DEAD_OBJECT status and marks the process dead until restart(), which is
// what a real hwservicemanager-supervised HAL does.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hal/binder.h"
#include "kernel/kernel.h"

namespace df::hal {

// A native crash in HAL code (SIGSEGV / SIGABRT / sanitizer-style).
struct HalCrash {
  std::string service;
  std::string signal;  // "SIGSEGV", "SIGABRT", ...
  std::string site;    // native function name
};

struct CrashRecord {
  std::string service;
  std::string signal;
  std::string site;
  uint64_t seq = 0;
};

// Relative method-invocation frequency when driven by high-level framework
// APIs (the signal the paper's probing phase measures to weight interfaces).
struct UsageWeight {
  uint32_t code = 0;
  double weight = 0;
};

class HalService : public IBinder {
 public:
  HalService(kernel::Kernel& kernel, std::string process_name);
  ~HalService() override;

  HalService(const HalService&) = delete;
  HalService& operator=(const HalService&) = delete;

  // --- IBinder --------------------------------------------------------------
  TxResult transact(uint32_t code, Parcel& data) final;
  std::string_view descriptor() const final { return process_name_; }

  // Interface metadata exposed through ServiceManager reflection.
  virtual InterfaceDesc interface() const = 0;

  // How often the Android framework calls each method under a typical app
  // workload (drives the probing phase's weight estimation).
  virtual std::vector<UsageWeight> app_usage_profile() const = 0;

  // --- process lifecycle ------------------------------------------------------
  bool dead() const { return dead_; }
  // Restart the HAL process after a crash (or a device reboot): closes the
  // old task's fds, resets all native state.
  void restart();
  const std::vector<CrashRecord>& crashes() const { return crashes_; }

  kernel::TaskId task() const { return task_; }
  kernel::Kernel& kernel() { return kernel_; }

  // --- snapshot support (DESIGN.md §13) --------------------------------------
  // One walk over the service's *live* native state, in either direction
  // (kernel/snapshot.h): every field reset_native() would wipe, including
  // cached kernel fds, each named once. The fd table itself is walked
  // separately by the kernel layer; the fd values here must refer to the
  // restored table. Crash history stays host-side and is never restored.
  virtual void state(kernel::StateArchive&) {}
  // Wipes native state in place (no task churn) so a loading state() walk
  // starts from the same blank slate a restart would give it.
  void reset_native_for_snapshot() { reset_native(); }
  // Restores the supervisor's dead flag without a restart round-trip.
  void restore_dead(bool d) { dead_ = d; }

 protected:
  // Subclasses implement the proprietary native logic here. They may throw
  // HalCrash via crash_native().
  virtual TxResult on_transact(uint32_t code, Parcel& data) = 0;
  // Drop all native state (called by restart()).
  virtual void reset_native() = 0;

  // --- native code helpers (syscalls run on this service's HAL task) ---------
  int64_t sys_open(std::string_view path, uint64_t flags = 0);
  int64_t sys_close(int32_t fd);
  int64_t sys_ioctl(int32_t fd, uint64_t req,
                    std::span<const uint8_t> in = {},
                    std::vector<uint8_t>* out = nullptr);
  int64_t sys_read(int32_t fd, size_t n, std::vector<uint8_t>* out = nullptr);
  int64_t sys_write(int32_t fd, std::span<const uint8_t> data);
  int64_t sys_mmap(int32_t fd, size_t len, uint64_t prot = 3);
  int64_t sys_socket(uint64_t family, uint64_t type, uint64_t proto);
  int64_t sys_bind(int32_t fd, std::span<const uint8_t> addr);
  int64_t sys_connect(int32_t fd, std::span<const uint8_t> addr);
  int64_t sys_listen(int32_t fd, uint64_t backlog);
  int64_t sys_accept(int32_t fd);
  int64_t sys_setsockopt(int32_t fd, uint64_t level, uint64_t opt,
                         std::span<const uint8_t> data);
  int64_t sys_sendmsg(int32_t fd, std::span<const uint8_t> data);
  int64_t sys_recvmsg(int32_t fd, size_t n,
                      std::vector<uint8_t>* out = nullptr);

  // Raises a native crash at `site` (throws; never returns).
  [[noreturn]] void crash_native(std::string_view signal,
                                 std::string_view site);

 private:
  kernel::Kernel& kernel_;
  std::string process_name_;
  kernel::TaskId task_ = 0;
  bool dead_ = false;
  std::vector<CrashRecord> crashes_;
  uint64_t crash_seq_ = 0;
};

// Convenience: u32 args packed little-endian for ioctl payloads.
std::vector<uint8_t> pack_u32(std::initializer_list<uint32_t> vals);

}  // namespace df::hal
