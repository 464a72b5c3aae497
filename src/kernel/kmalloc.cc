#include "kernel/kmalloc.h"

#include <string>

namespace df::kernel {

HeapPtr Heap::alloc(size_t size, std::string_view tag) {
  const HeapPtr p = next_++;
  Slab s;
  s.size = size;
  s.tag = std::string(tag);
  s.live = true;
  s.bytes.assign(size, 0);
  slabs_.emplace(p, std::move(s));
  ++live_count_;
  live_bytes_ += size;
  return p;
}

bool Heap::free(HeapPtr p) {
  auto it = slabs_.find(p);
  if (it == slabs_.end() || !it->second.live) return false;
  it->second.live = false;
  it->second.bytes.clear();
  --live_count_;
  live_bytes_ -= it->second.size;
  return true;
}

const Heap::Slab* Heap::find(HeapPtr p) const {
  auto it = slabs_.find(p);
  return it == slabs_.end() ? nullptr : &it->second;
}

Heap::Slab* Heap::find_mutable(HeapPtr p) {
  auto it = slabs_.find(p);
  return it == slabs_.end() ? nullptr : &it->second;
}

bool Heap::is_live(HeapPtr p) const {
  const Slab* s = find(p);
  return s != nullptr && s->live;
}

void Heap::reset() {
  slabs_.clear();
  live_count_ = 0;
  live_bytes_ = 0;
  // next_ keeps increasing: handles stay unique across reboots.
}

void Heap::state(StateArchive& ar) {
  ar.u64(next_);
  ar.map(slabs_, [&](Slab& s) {
    ar.u64(s.size);
    ar.str(s.tag);
    ar.b(s.live);
    ar.blob(s.bytes);
  });
  if (!ar.loading()) return;
  live_count_ = 0;
  live_bytes_ = 0;
  for (const auto& [p, s] : slabs_) {
    if (p == kNullHeapPtr || p >= next_) {
      ar.fail("slab handle " + std::to_string(p) + " outside [1, " +
              std::to_string(next_) + ")");
    } else if (s.live ? s.bytes.size() != s.size : !s.bytes.empty()) {
      ar.fail("slab " + std::to_string(p) + " carries " +
              std::to_string(s.bytes.size()) + " bytes for a " +
              (s.live ? "live " : "freed ") + std::to_string(s.size) +
              "-byte object");
    } else if (s.live) {
      ++live_count_;
      live_bytes_ += s.size;
    }
  }
}

}  // namespace df::kernel
