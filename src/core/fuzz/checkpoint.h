// Campaign checkpoint/resume (DESIGN.md §9): periodically serializes a
// whole fleet campaign — per-device RNG streams, corpora, feature sets,
// relation graphs, crash logs, kernel cursors, fault-plan positions, the
// metrics registry, the trace rings, and the stats-reporter series — into
// one versioned JSON document, and restores it into a freshly constructed
// Daemon for bit-identical continuation.
//
// The serialization point is a *barrier reboot*: the device's current live
// kernel/HAL state (open fds, driver protocol positions, heap contents) is
// deliberately not serialized. Instead the daemon reboots every device
// immediately before checkpointing, so both the saved and the resumed
// campaign continue from the same freshly booted substrate plus the
// restored campaign-cumulative state. Captured StateSnapshots (DESIGN.md
// §13) are campaign assets, not live state: they ride along as flat byte
// images so fault recovery and snapshot forks continue identically after
// a resume. The determinism contract is therefore: a run that checkpoints at
// execution K, is killed, and resumes produces per-device results
// bit-identical to the same-seed run that checkpoints at K and keeps going
// (check_bench_json.py --compare on the stats export). With checkpointing
// disabled nothing here runs and campaigns behave exactly as before.
//
// serialize() and restore() run the same walk over the document, each
// section written once as a template over a Save or a Load archive
// (checkpoint.cc), so every field is named in one place and the reader
// cannot drift from the writer. Corrupted or truncated checkpoint files
// are rejected with a descriptive error (obs/json_parse.h), never a crash;
// a document whose keys are reordered, unknown or missing is rejected
// naming the expected key.
#pragma once

#include <cstdint>
#include <string>

namespace df::core {

class Daemon;
class Engine;

class CampaignCheckpoint {
 public:
  // Bump when the schema changes; restore() rejects other versions.
  // v2: seed lineage (origin/parent), attributed plan-queue entries,
  // per-operator yield table, plan-attempt counters, bug lineage chains.
  // v3: live snapshot state (DESIGN.md §13) — snapshot byte images, the
  // COW pool, the fault-recovery anchor, snapshot-forked queue entries,
  // and the SnapshotStats counters; plus the snapshot_fork operator row.
  // v4: per-driver live-state blob (the Driver::state walk).
  // Reboot-persistent driver fields (rt1711's probe counter) shape coverage
  // emitted on later boots, so a resume that re-derives them from a fresh
  // boot diverges from the uninterrupted run when it resumes early in a
  // campaign.
  static constexpr uint64_t kVersion = 4;

  // Serializes `daemon` right now. The caller must have barrier-rebooted
  // every device first (Daemon::checkpoint_json does both).
  static std::string serialize(Daemon& daemon);

  // Restores a document produced by serialize() into `daemon`, which must
  // have been constructed with the same seed and the same add_device()
  // sequence (observability/reporter attached as in the original run).
  // Returns false and fills `error` (if non-null) on malformed input,
  // version/seed/device mismatch, or unparsable programs.
  static bool restore(Daemon& daemon, const std::string& json,
                      std::string* error);

  // Atomic-ish file write: temp file + rename, creating the directory if
  // needed. Returns false and fills `error` on I/O failure.
  static bool write_file(const std::string& path, const std::string& json,
                         std::string* error);
  // Whole-file read; returns false and fills `error` when unreadable.
  static bool read_file(const std::string& path, std::string* out,
                        std::string* error);

 private:
  // The one walk over the document, run in both directions: Ar is the Save
  // or the Load archive (checkpoint.cc). Private members so the
  // Daemon/Engine/Broker friend grants apply.
  template <class Ar>
  static bool visit(Ar& a, Daemon& daemon);
  template <class Ar>
  static bool visit_device(Ar& a, const std::string& id, Engine& eng);
};

}  // namespace df::core
