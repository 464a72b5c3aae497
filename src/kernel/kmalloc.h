// Simulated slab allocator.
//
// Drivers allocate kernel objects through this heap so that the KASAN layer
// (kernel/kasan.h) can detect use-after-free, out-of-bounds and double-free
// conditions exactly where a real instrumented kernel would. Allocations are
// identified by opaque non-zero handles; freed allocations are quarantined
// (metadata retained) so late accesses remain attributable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel/snapshot.h"

namespace df::kernel {

using HeapPtr = uint64_t;  // 0 == null
inline constexpr HeapPtr kNullHeapPtr = 0;

class Heap {
 public:
  struct Slab {
    uint64_t size = 0;
    std::string tag;      // allocation site tag, e.g. "bt_hci:codec_buf"
    bool live = false;
    std::vector<uint8_t> bytes;
  };

  // Returns a fresh handle; never reuses handles, so stale pointers are
  // always distinguishable from new allocations.
  HeapPtr alloc(size_t size, std::string_view tag);

  // Marks the slab freed. Returns false on double-free or bogus handle.
  bool free(HeapPtr p);

  // nullptr if the handle was never allocated.
  const Slab* find(HeapPtr p) const;
  Slab* find_mutable(HeapPtr p);

  bool is_live(HeapPtr p) const;

  size_t live_count() const { return live_count_; }
  size_t total_allocs() const { return next_ - 1; }
  size_t live_bytes() const { return live_bytes_; }

  // Drop quarantined metadata (device reboot).
  void reset();

  // Checkpoint support: handles are never reused, so the cursor must be
  // restored for a resumed run to mint the same handle values (they appear
  // in KASAN report details).
  HeapPtr next_handle() const { return next_; }
  void set_next_handle(HeapPtr p) { next_ = p; }

  // Snapshot support (DESIGN.md §13): one walk over the full slab image,
  // including the KASAN quarantine (freed slabs keep their metadata) and
  // the handle cursor, in handle order so the section image is
  // deterministic. Loading replaces the entire heap and rejects an image
  // KASAN could not trust: a live slab whose bytes are not `size` long, a
  // freed slab that keeps bytes, or a handle that is null, repeated, or
  // not below the restored cursor.
  void state(StateArchive& ar);

 private:
  HeapPtr next_ = 1;
  size_t live_count_ = 0;
  size_t live_bytes_ = 0;
  std::unordered_map<HeapPtr, Slab> slabs_;
};

}  // namespace df::kernel
