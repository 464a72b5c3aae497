// Mali-style GPU job-chain driver (simulated vendor kbase).
//
// Contexts, memory pools, and job-chain submission with inter-job
// dependencies. Planted bug (Table II #5): submitting a dependency *cycle*
// that includes a fragment job, on a context with a configured memory pool,
// spins the job scheduler forever — the watchdog then reports
// "Infinite Loop in gpu_mali_job_loop". Reaching it needs a valid context
// id, a pool, and a crafted multi-record payload: deep for syscall fuzzing,
// routine for the Graphics/Media HAL submission paths.
#pragma once

#include <algorithm>
#include <map>

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct MaliBugs {
  bool job_loop = false;  // Table II #5 (device A2)
};

class MaliDriver final : public Driver {
 public:
  static constexpr uint64_t kIocCtxCreate = 0x8001;
  static constexpr uint64_t kIocCtxDestroy = 0x8002;  // u32 ctx
  static constexpr uint64_t kIocMemPool = 0x8003;     // u32 ctx, u32 pages
  static constexpr uint64_t kIocJobSubmit = 0x8004;   // header + job records
  static constexpr uint64_t kIocJobWait = 0x8005;     // u32 ctx
  static constexpr uint64_t kIocGetVersion = 0x8006;
  static constexpr uint64_t kIocFlush = 0x8007;       // u32 ctx

  // Job record types.
  static constexpr uint32_t kJobNull = 0;
  static constexpr uint32_t kJobVertex = 1;
  static constexpr uint32_t kJobFragment = 2;
  static constexpr uint32_t kJobCompute = 3;

  explicit MaliDriver(MaliBugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "gpu_mali"; }
  std::vector<std::string> nodes() const override { return {"/dev/mali0"}; }
  std::vector<std::string> state_names() const override {
    return {"no_ctx", "ctx_ready", "pool_ready", "jobs_running"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$MALI_CTX_CREATE"}}},
        {1, 2, {{"ioctl$MALI_MEM_POOL", {{"pages", 16}}}}},
        {2, 3, {{"ioctl$MALI_JOB_SUBMIT", {{"njobs", 1}, {"jobs", 8}}}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.u32(next_ctx_);
    ar.map(ctxs_, [&](GpuCtx& c) {
      ar.u32(c.pool_pages);
      ar.u64(c.jobs_run);
      ar.u32(c.completed_batches);
    });
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
  // Deepest position any context has reached in the submission protocol.
  size_t protocol_state() const {
    size_t st = 0;
    for (const auto& [id, c] : ctxs_) {
      if (c.jobs_run > 0) return 3;
      st = std::max(st, c.pool_pages > 0 ? size_t{2} : size_t{1});
    }
    return st;
  }

  struct GpuCtx {
    uint32_t pool_pages = 0;
    uint64_t jobs_run = 0;
    uint32_t completed_batches = 0;
  };

  MaliBugs bugs_;
  uint32_t next_ctx_ = 1;
  std::map<uint32_t, GpuCtx> ctxs_;
};

}  // namespace df::kernel::drivers
