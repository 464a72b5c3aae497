// DRM display/render driver (simulated).
//
// Buffer-object lifecycle (create/map/destroy) plus command submission over
// BO lists — the kernel counterpart of the Graphics HAL's composition path.
// No planted bug.
#pragma once

#include <map>

#include "kernel/driver.h"

namespace df::kernel::drivers {

class DrmGpuDriver final : public Driver {
 public:
  static constexpr uint64_t kIocGetCap = 0xd001;     // u32 cap id
  static constexpr uint64_t kIocCreateBo = 0xd002;   // u32 size_pages
  static constexpr uint64_t kIocMapBo = 0xd003;      // u32 handle
  static constexpr uint64_t kIocDestroyBo = 0xd004;  // u32 handle
  static constexpr uint64_t kIocSubmit = 0xd005;     // u32 pipe, u32 n, h[]
  static constexpr uint64_t kIocWait = 0xd006;       // u32 fence

  std::string_view name() const override { return "drm_gpu"; }
  std::vector<std::string> nodes() const override {
    return {"/dev/dri_card0"};
  }
  std::vector<std::string> state_names() const override {
    return {"idle", "bo_allocated", "bo_mapped", "submitted"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$DRM_CREATE_BO", {{"pages", 1}}}}},
        {1, 2, {{"ioctl$DRM_MAP_BO"}}},
        {2, 3, {{"ioctl$DRM_SUBMIT", {{"pipe", 0}}}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.u32(next_handle_);
    ar.u32(next_fence_);
    ar.map(bos_, [&](Bo& bo) {
      ar.u32(bo.pages);
      ar.b(bo.mapped);
    });
  }

  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override {
    const int64_t ret = ioctl_impl(ctx, f, req, in, out);
    enter_state(protocol_state());
    return ret;
  }
  int64_t mmap(DriverCtx& ctx, File& f, size_t len, uint64_t prot) override;

 private:
  int64_t ioctl_impl(DriverCtx& ctx, File& f, uint64_t req,
                     std::span<const uint8_t> in, std::vector<uint8_t>& out);
  // Composition-path position: submissions trump mapping trump allocation.
  size_t protocol_state() const {
    if (next_fence_ > 1) return 3;
    size_t st = 0;
    for (const auto& [h, bo] : bos_) {
      if (bo.mapped) return 2;
      st = 1;
    }
    return st;
  }

  struct Bo {
    uint32_t pages = 0;
    bool mapped = false;
  };

  uint32_t next_handle_ = 1;
  uint32_t next_fence_ = 1;
  std::map<uint32_t, Bo> bos_;
};

}  // namespace df::kernel::drivers
