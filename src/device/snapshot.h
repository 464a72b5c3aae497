// Copy-on-write device state snapshots (DESIGN.md §13).
//
// A StateSnapshot is the full *live* state of a simulated device — slab
// heap (including the KASAN quarantine), per-task VFS fd tables, every
// driver's protocol state machine, kernel RNG/mmap cursors, and each HAL
// service's native state — as an ordered list of named byte sections.
// Campaign-cumulative statistics (coverage, dmesg sequence, state-visit
// tallies, reboot/syscall counters) are deliberately excluded: restoring a
// snapshot rewinds the device, not the campaign.
//
// Dirty-struct deltas: capturing with a parent compares each section image
// against the parent's and *shares* the parent's buffer when the bytes are
// unchanged, so a chain of nested snapshots stores each unchanged
// subsystem once. Sharing is pure aliasing (shared_ptr<const bytes>) —
// restores never care whether a section is owned or shared.
//
// Snapshots restore onto the same device *shape* (same catalog spec: same
// driver registration order, same service list); restore_snapshot verifies
// the section names against the device and rejects mismatches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "device/device.h"
#include "kernel/snapshot.h"

namespace df::device {

struct StateSnapshot {
  struct Section {
    std::string name;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
  };

  std::vector<Section> sections;
  // Engine bookkeeping: capture sequence id (stable across checkpoint
  // round-trips) and the call count of the program that established this
  // state — the ioctl prefix a fork from here avoids re-executing.
  uint64_t seq = 0;
  uint64_t estab_calls = 0;
  // Dirty-struct delta stats, set at capture time.
  uint64_t sections_shared = 0;  // sections aliasing the parent's buffer
  uint64_t bytes_shared = 0;     // bytes in those shared sections

  size_t total_bytes() const {
    size_t n = 0;
    for (const Section& s : sections) n += s.bytes ? s.bytes->size() : 0;
    return n;
  }
  const Section* find(std::string_view name) const {
    for (const Section& s : sections) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

// Captures the live state of `dev`. `native_task` is the executor task
// whose fd table holds the fuzzer's own open files (the broker passes its
// native task). With a parent, unchanged sections alias the parent's
// buffers (see above).
StateSnapshot capture_snapshot(Device& dev, kernel::TaskId native_task,
                               const StateSnapshot* parent = nullptr);

// Restores `snap` onto `dev`: revives dead services, resets + reloads every
// driver, replaces heap/fd/mapping state, repositions the kernel RNG, and
// clears any latched panic. Returns false and fills `error` (if non-null,
// "snapshot: ...", naming the section) when the snapshot does not match
// the device shape or a section image is corrupt (see the rejection rules
// of the component walks); the device state is then unspecified and the
// caller should reboot.
bool restore_snapshot(Device& dev, kernel::TaskId native_task,
                      const StateSnapshot& snap, std::string* error = nullptr);

// Flat byte image for checkpoint serialization and tests. from_bytes
// re-owns every section (sharing is a capture-time optimization only).
std::vector<uint8_t> snapshot_to_bytes(const StateSnapshot& snap);
bool snapshot_from_bytes(std::span<const uint8_t> data, StateSnapshot* out,
                         std::string* error = nullptr);

}  // namespace df::device
