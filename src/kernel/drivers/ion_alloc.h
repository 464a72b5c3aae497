// ION-style DMA buffer allocator (simulated).
//
// Heap-masked allocations shared between the media/camera/graphics HALs and
// their kernel drivers; allocation ids act as cross-driver buffer currency.
// No planted bug.
#pragma once

#include <map>

#include "kernel/driver.h"

namespace df::kernel::drivers {

class IonDriver final : public Driver {
 public:
  static constexpr uint64_t kIocAlloc = 0xe001;  // u32 len, u32 heap_mask
  static constexpr uint64_t kIocFree = 0xe002;   // u32 id
  static constexpr uint64_t kIocShare = 0xe003;  // u32 id
  static constexpr uint64_t kIocQuery = 0xe004;

  std::string_view name() const override { return "ion_alloc"; }
  std::vector<std::string> nodes() const override { return {"/dev/ion"}; }
  std::vector<std::string> state_names() const override {
    return {"empty", "allocated", "shared"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"ioctl$ION_ALLOC", {{"len", 4096}, {"heap", 1}}}}},
        {1, 2, {{"ioctl$ION_SHARE"}}},
        {1, 0, {{"ioctl$ION_FREE"}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.u32(next_id_);
    ar.map(bufs_, [&](Buf& buf) {
      ar.u32(buf.len);
      ar.u32(buf.heap);
      ar.b(buf.shared);
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
  // Allocator position: any buffer shared cross-driver > any live buffer.
  size_t protocol_state() const {
    bool allocated = false;
    for (const auto& [id, b] : bufs_) {
      if (b.shared) return 2;
      allocated = true;
    }
    return allocated ? 1 : 0;
  }

  struct Buf {
    uint32_t len = 0;
    uint32_t heap = 0;
    bool shared = false;
  };

  uint32_t next_id_ = 1;
  std::map<uint32_t, Buf> bufs_;
};

}  // namespace df::kernel::drivers
