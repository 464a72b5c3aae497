// Tests for campaign checkpoint/resume: a resumed campaign must be
// bit-identical to the uninterrupted same-seed run (per device, for any
// worker count), and corrupted or mismatched checkpoints must be rejected
// with a descriptive error instead of a crash.
#include "core/fuzz/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/fuzz/daemon.h"
#include "device/snapshot.h"
#include "obs/analytics.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/stats_reporter.h"
#include "util/hash.h"

namespace df::core {
namespace {

// Everything that must match between an interrupted+resumed campaign and
// the uninterrupted one, per device, timing excluded.
struct Fingerprint {
  std::string stats_json;   // reporter series (include_timing = false)
  std::string trace_jsonl;  // milestone event trace
  std::string corpus;       // every engine's corpus as DSL text
  std::string bugs;         // device:title:dup per bug, aggregation order
  std::string analytics;    // per-device attribution/lineage/frontier JSON
  std::string snapshots;    // per-device snapshot counters + pool shape
  uint64_t total_execs = 0;
  size_t total_coverage = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct CampaignSetup {
  DaemonConfig cfg;
  std::vector<std::string> devices;
};

CampaignSetup make_setup(size_t workers, double fault_rate,
                         const std::string& checkpoint_dir) {
  CampaignSetup s;
  s.cfg.seed = 3;
  s.cfg.workers = workers;
  s.cfg.engine.fault.rate = fault_rate;
  s.cfg.checkpoint_dir = checkpoint_dir;
  s.cfg.checkpoint_every = 1024;
  s.devices = {"A1", "B", "C2", "E"};
  return s;
}

Fingerprint fingerprint(Daemon& d, obs::Observability& obs,
                        obs::StatsReporter& rep) {
  Fingerprint fp;
  fp.stats_json = rep.to_json(/*include_timing=*/false);
  fp.trace_jsonl = obs.trace.to_jsonl();
  fp.corpus = d.save_corpus();
  for (const auto& b : d.all_bugs()) {
    fp.bugs += b.device_id + ":" + b.bug.title + ":" +
               std::to_string(b.bug.dup_count) + "\n";
  }
  fp.total_execs = d.total_executions();
  fp.total_coverage = d.total_kernel_coverage();
  // Analytics round-trips through the checkpoint too: the yield table,
  // lineage digest, and plan-attempt counters behind the frontier report
  // must restore exactly (no wall-clock series, pure content).
  for (const auto& id : rep.devices()) {
    obs::JsonWriter w;
    d.engine(id)->analytics_snapshot().write_json(w);
    fp.analytics += id + ":" + w.take() + "\n";
  }
  // The snapshot layer rides the checkpoint too (DESIGN.md §13): fork and
  // recovery counters, the capture pool, and the last-good capture must all
  // come back exactly, or the resumed campaign would fork from different
  // states than the uninterrupted one.
  for (const auto& id : rep.devices()) {
    Engine* e = d.engine(id);
    const SnapshotStats& s = e->snapshot_stats();
    fp.snapshots +=
        id + ":" + std::to_string(s.captures) + "/" +
        std::to_string(s.restores) + "/" + std::to_string(s.forks) + "/" +
        std::to_string(s.fault_recoveries) + "/pool=" +
        std::to_string(e->snapshot_pool_size()) + "/good=" +
        std::to_string(e->last_good_snapshot() ? e->last_good_snapshot()->seq
                                               : 0) +
        "\n";
  }
  return fp;
}

// Builds the daemon for `setup` with observability + reporter attached the
// same way on both the save and the resume side.
struct Campaign {
  explicit Campaign(const CampaignSetup& setup) : daemon(setup.cfg) {
    obs.trace.set_record_execs(false);
    daemon.attach_observability(&obs);
    daemon.attach_reporter(&rep);
    for (const auto& id : setup.devices) {
      EXPECT_TRUE(daemon.add_device(id));
    }
  }
  obs::Observability obs;
  obs::StatsReporter rep{512};
  Daemon daemon;
};

void expect_roundtrip(size_t workers, double fault_rate) {
  const std::string dir = ::testing::TempDir() + "df_checkpoint_" +
                          std::to_string(workers) + "_" +
                          std::to_string(fault_rate != 0.0);
  const CampaignSetup setup = make_setup(workers, fault_rate, dir);
  constexpr uint64_t kBudget = 3000;  // checkpoints at 1024 and 2048

  // Uninterrupted run (checkpointing on, same barrier-reboot grid).
  Campaign full(setup);
  full.daemon.run(kBudget, 128);
  ASSERT_EQ(full.daemon.checkpoints_written().size(), 2u);
  const Fingerprint want = fingerprint(full.daemon, full.obs, full.rep);

  // "Interrupted" run: a fresh process restores the last checkpoint (exec
  // 2048) and completes only the remaining budget.
  std::string text, error;
  ASSERT_TRUE(CampaignCheckpoint::read_file(dir + "/checkpoint.json", &text,
                                            &error))
      << error;
  Campaign resumed(setup);
  ASSERT_TRUE(resumed.daemon.resume(text, &error)) << error;
  EXPECT_EQ(resumed.daemon.progress(), 2048u);
  resumed.daemon.run(kBudget, 128);

  const Fingerprint got =
      fingerprint(resumed.daemon, resumed.obs, resumed.rep);
  EXPECT_EQ(want.total_execs, got.total_execs);
  EXPECT_EQ(want.total_coverage, got.total_coverage);
  EXPECT_EQ(want.bugs, got.bugs);
  EXPECT_EQ(want.corpus, got.corpus);
  EXPECT_EQ(want.stats_json, got.stats_json);
  EXPECT_EQ(want.trace_jsonl, got.trace_jsonl);
  EXPECT_EQ(want.analytics, got.analytics);
  EXPECT_EQ(want.snapshots, got.snapshots);
  EXPECT_NE(got.analytics.find("\"origin\":\"generate\""),
            std::string::npos);
}

TEST(Checkpoint, ResumeMatchesUninterruptedRunSequential) {
  expect_roundtrip(/*workers=*/1, /*fault_rate=*/0.0);
}

TEST(Checkpoint, ResumeMatchesUninterruptedRunParallel) {
  expect_roundtrip(/*workers=*/4, /*fault_rate=*/0.0);
}

TEST(Checkpoint, ResumeReplaysTheFaultScheduleToo) {
  expect_roundtrip(/*workers=*/1, /*fault_rate=*/0.01);
}

// Regression (checkpoint v4): driver fields that deliberately survive
// reboots — rt1711's probe counter feeds a per-boot coverage feature —
// must ride the checkpoint, or a resume early in a campaign (while those
// features are still fresh) re-derives them from a fresh boot and sees
// "new" coverage the uninterrupted run already counted. Seed 52 reboots
// (bug-triggered) before exec 256; resuming there exposed the drift.
TEST(Checkpoint, EarlyResumeCarriesRebootPersistentDriverState) {
  const std::string dir = ::testing::TempDir() + "df_checkpoint_early";
  CampaignSetup setup;
  setup.cfg.seed = 52;
  setup.cfg.workers = 1;
  setup.cfg.checkpoint_dir = dir;
  setup.cfg.checkpoint_every = 256;
  setup.devices = {"A1", "E"};

  Campaign full(setup);
  full.daemon.run(512, 64);
  const Fingerprint want = fingerprint(full.daemon, full.obs, full.rep);

  std::string text, error;
  ASSERT_TRUE(CampaignCheckpoint::read_file(dir + "/checkpoint.json", &text,
                                            &error))
      << error;
  Campaign resumed(setup);
  ASSERT_TRUE(resumed.daemon.resume(text, &error)) << error;
  EXPECT_EQ(resumed.daemon.progress(), 256u);
  resumed.daemon.run(512, 64);

  const Fingerprint got =
      fingerprint(resumed.daemon, resumed.obs, resumed.rep);
  EXPECT_EQ(want.total_coverage, got.total_coverage);
  EXPECT_EQ(want.corpus, got.corpus);
  EXPECT_EQ(want.bugs, got.bugs);
  EXPECT_EQ(want.trace_jsonl, got.trace_jsonl);
}

// Per-driver coverage (the Fig. 4 split) is counted from the engine's
// feature set, which the checkpoint carries, so a resume at exec K reports
// the same per-driver counts as the uninterrupted campaign.
TEST(Checkpoint, PerDriverCoverageSurvivesResume) {
  const std::string dir = ::testing::TempDir() + "df_checkpoint_per_driver";
  CampaignSetup setup;
  setup.cfg.seed = 9;
  setup.cfg.workers = 1;
  setup.cfg.checkpoint_dir = dir;
  setup.cfg.checkpoint_every = 512;
  setup.devices = {"A1", "C1"};

  Campaign full(setup);
  full.daemon.run(1536, 128);

  std::string text, error;
  ASSERT_TRUE(CampaignCheckpoint::read_file(dir + "/checkpoint.json", &text,
                                            &error))
      << error;
  Campaign resumed(setup);
  ASSERT_TRUE(resumed.daemon.resume(text, &error)) << error;
  EXPECT_EQ(resumed.daemon.progress(), 1024u);
  resumed.daemon.run(1536, 128);

  for (const std::string& id : setup.devices) {
    const auto want = full.daemon.engine(id)->features().kernel_per_driver();
    const auto got = resumed.daemon.engine(id)->features().kernel_per_driver();
    EXPECT_GT(want.size(), 2u) << id;  // the core path plus real drivers
    EXPECT_EQ(want, got) << id;
    size_t sum = 0;
    for (const auto& [drv, n] : got) sum += n;
    EXPECT_EQ(sum, resumed.daemon.engine(id)->kernel_coverage()) << id;
  }
}

// A mid-campaign checkpoint carries the live snapshot images; every daemon
// resumed from the same document holds the same pool and the same
// last-good capture, byte for byte.
TEST(Checkpoint, CarriesLiveSnapshotsAcrossResume) {
  DaemonConfig cfg;
  cfg.seed = 7;
  Daemon source(cfg);
  source.add_device("A1");
  source.run(1200, 128);  // past the capture cadence: pool is non-empty
  ASSERT_GT(source.engine("A1")->snapshot_pool_size(), 0u);
  ASSERT_NE(source.engine("A1")->last_good_snapshot(), nullptr);
  const std::string json = source.checkpoint_json();
  EXPECT_NE(json.find("\"snapshots\""), std::string::npos);
  EXPECT_NE(json.find("\"images\""), std::string::npos);

  auto resumed = [&] {
    auto d = std::make_unique<Daemon>(cfg);
    d->add_device("A1");
    std::string error;
    EXPECT_TRUE(d->resume(json, &error)) << error;
    return d;
  };
  const auto a = resumed();
  const auto b = resumed();
  Engine* ea = a->engine("A1");
  Engine* eb = b->engine("A1");
  EXPECT_EQ(ea->snapshot_pool_size(),
            source.engine("A1")->snapshot_pool_size());
  ASSERT_NE(ea->last_good_snapshot(), nullptr);
  ASSERT_NE(eb->last_good_snapshot(), nullptr);
  EXPECT_EQ(ea->last_good_snapshot()->seq, eb->last_good_snapshot()->seq);
  EXPECT_EQ(device::snapshot_to_bytes(*ea->last_good_snapshot()),
            device::snapshot_to_bytes(*eb->last_good_snapshot()));
  EXPECT_EQ(device::snapshot_to_bytes(*ea->last_good_snapshot()),
            device::snapshot_to_bytes(
                *source.engine("A1")->last_good_snapshot()));
}

TEST(Checkpoint, DisabledConfigWritesNothing) {
  DaemonConfig cfg;  // checkpoint_dir empty
  Daemon d(cfg);
  d.add_device("E");
  d.run(300, 64);
  EXPECT_TRUE(d.checkpoints_written().empty());
}

TEST(Checkpoint, ResumedBudgetAlreadySpentIsANoOp) {
  DaemonConfig cfg;
  cfg.seed = 5;
  Daemon a(cfg);
  a.add_device("E");
  a.run(500, 64);
  const std::string json = a.checkpoint_json();

  Daemon b(cfg);
  b.add_device("E");
  std::string error;
  ASSERT_TRUE(b.resume(json, &error)) << error;
  EXPECT_EQ(b.progress(), 500u);
  b.run(500, 64);  // nothing left to do
  EXPECT_EQ(b.engine("E")->executions(), 500u);
}

// serialize() after a resume reproduces the document it resumed from, byte
// for byte: restore reads back every field the writer wrote.
TEST(Checkpoint, SerializeRestoreSerializeIsIdentity) {
  for (const double fault_rate : {0.0, 0.02}) {
    CampaignSetup setup;
    setup.cfg.seed = 42;
    setup.cfg.engine.fault.rate = fault_rate;
    setup.devices = {"A1", "C1"};
    Campaign source(setup);
    source.daemon.run(1024, 128);
    const std::string doc = source.daemon.checkpoint_json();

    Campaign resumed(setup);
    std::string error;
    ASSERT_TRUE(resumed.daemon.resume(doc, &error)) << error;
    const std::string again = CampaignCheckpoint::serialize(resumed.daemon);
    ASSERT_EQ(again.size(), doc.size()) << "fault_rate " << fault_rate;
    size_t first_diff = 0;
    while (first_diff < doc.size() && doc[first_diff] == again[first_diff]) {
      ++first_diff;
    }
    EXPECT_EQ(first_diff, doc.size())
        << "fault_rate " << fault_rate << ": first difference at byte "
        << first_diff;
  }
}

// The v4 document pinned by length and FNV-1a hash. The fleet.worker.*_ns
// counters are wall time, so their values are zeroed before hashing; every
// other byte is a deterministic function of the campaign. A change to the
// checkpoint code that keeps v4 must keep these; re-record them (and say
// why) only when the format or the campaign trajectory changes on purpose
// (tests/fixtures/README.md).
constexpr size_t kV4DocumentBytes = 648502;
constexpr uint64_t kV4DocumentHash = 0xa46315936c82a582ull;

std::string mask_wall_time_counters(std::string doc) {
  static constexpr std::string_view kName = "\"name\":\"fleet.worker.";
  static constexpr std::string_view kValue = "\"value\":";
  for (size_t pos = doc.find(kName); pos != std::string::npos;
       pos = doc.find(kName, pos + 1)) {
    const size_t v = doc.find(kValue, pos);
    if (v == std::string::npos) break;
    if (doc.find('}', pos) < v) continue;  // a gauge: no "value" member
    const size_t digits = v + kValue.size();
    size_t end = digits;
    while (end < doc.size() && doc[end] >= '0' && doc[end] <= '9') ++end;
    doc.replace(digits, end - digits, "0");
  }
  return doc;
}

TEST(Checkpoint, V4DocumentMatchesRecordedHash) {
  CampaignSetup setup;
  setup.cfg.seed = 42;
  setup.cfg.engine.fault.rate = 0.02;
  setup.cfg.checkpoint_dir = ::testing::TempDir() + "df_checkpoint_v4_pin";
  setup.cfg.checkpoint_every = 1024;
  setup.devices = {"A1", "C1"};
  Campaign c(setup);
  c.daemon.run(2048, 128);
  ASSERT_EQ(c.daemon.checkpoints_written().size(), 1u);
  const std::string doc = mask_wall_time_counters(c.daemon.checkpoint_json());
  const uint64_t hash = util::fnv1a(doc);
  if (doc.size() != kV4DocumentBytes || hash != kV4DocumentHash) {
    // Left in the test's working directory (the build tree under ctest)
    // for diffing against a document written by the recording commit.
    const std::string path = "checkpoint_v4_actual.json";
    CampaignCheckpoint::write_file(path, doc, nullptr);
    ADD_FAILURE() << "v4 document drifted: " << doc.size() << " bytes, hash 0x"
                  << std::hex << hash << "; written to " << path;
  }
}

// --- rejection: corrupted / mismatched checkpoints -------------------------

class CheckpointRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.seed = 5;
    Daemon source(cfg_);
    source.add_device("A1");
    source.add_device("B");
    source.run(600, 64);
    valid_ = source.checkpoint_json();
    ASSERT_FALSE(valid_.empty());
  }

  // A daemon shaped like the checkpoint's author.
  Daemon matching_daemon() {
    Daemon d(cfg_);
    d.add_device("A1");
    d.add_device("B");
    return d;
  }

  void expect_rejected(Daemon&& d, const std::string& doc) {
    std::string error;
    EXPECT_FALSE(d.resume(doc, &error));
    EXPECT_FALSE(error.empty());
  }

  DaemonConfig cfg_;
  std::string valid_;
};

TEST_F(CheckpointRejectTest, GarbageIsRejectedNotCrashed) {
  expect_rejected(matching_daemon(), "not json at all {{{");
  expect_rejected(matching_daemon(), "");
  expect_rejected(matching_daemon(), "[1, 2, 3]");
  expect_rejected(matching_daemon(), "{\"checkpoint\": 7}");
}

TEST_F(CheckpointRejectTest, TruncatedDocumentIsRejected) {
  // Every prefix must fail cleanly; step through a few.
  for (const size_t cut : {valid_.size() / 4, valid_.size() / 2,
                           valid_.size() - 2}) {
    expect_rejected(matching_daemon(), valid_.substr(0, cut));
  }
}

TEST_F(CheckpointRejectTest, BitFlippedFieldIsRejected) {
  // Corrupt a structural field: progress becomes a string.
  std::string doc = valid_;
  const size_t pos = doc.find("\"progress\":");
  ASSERT_NE(pos, std::string::npos);
  doc.insert(pos + strlen("\"progress\":"), "\"oops");
  expect_rejected(matching_daemon(), doc);
}

TEST_F(CheckpointRejectTest, WrongVersionIsRejected) {
  std::string doc = valid_;
  const size_t pos = doc.find("\"version\":4");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, strlen("\"version\":4"), "\"version\":999");
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(CheckpointRejectTest, SeedMismatchIsRejected) {
  DaemonConfig other = cfg_;
  other.seed = 6;
  Daemon d(other);
  d.add_device("A1");
  d.add_device("B");
  std::string error;
  EXPECT_FALSE(d.resume(valid_, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST_F(CheckpointRejectTest, DeviceSetMismatchIsRejected) {
  Daemon missing(cfg_);
  missing.add_device("A1");
  expect_rejected(std::move(missing), valid_);

  Daemon reordered(cfg_);
  reordered.add_device("B");
  reordered.add_device("A1");
  expect_rejected(std::move(reordered), valid_);
}

TEST_F(CheckpointRejectTest, FaultConfigMismatchIsRejected) {
  // The checkpoint was taken without a fault plan; a resume-side engine
  // with one would diverge, so it must be refused.
  DaemonConfig other = cfg_;
  other.engine.fault.rate = 0.01;
  Daemon d(other);
  d.add_device("A1");
  d.add_device("B");
  expect_rejected(std::move(d), valid_);
}

TEST_F(CheckpointRejectTest, SnapshotConfigMismatchIsRejected) {
  // The checkpoint was taken with the default snapshot config; a resume-side
  // engine with the layer off (or on a different cadence) would capture and
  // fork on a different schedule and silently diverge.
  DaemonConfig off = cfg_;
  off.engine.use_snapshots = false;
  Daemon d_off(off);
  d_off.add_device("A1");
  d_off.add_device("B");
  std::string error;
  EXPECT_FALSE(d_off.resume(valid_, &error));
  EXPECT_NE(error.find("snapshot configuration"), std::string::npos) << error;

  DaemonConfig cadence = cfg_;
  cadence.engine.snapshot_every = 128;
  Daemon d_cadence(cadence);
  d_cadence.add_device("A1");
  d_cadence.add_device("B");
  error.clear();
  EXPECT_FALSE(d_cadence.resume(valid_, &error));
  EXPECT_NE(error.find("snapshot configuration"), std::string::npos) << error;
}

TEST_F(CheckpointRejectTest, SnapshotPoolReferencingMissingImageIsRejected) {
  std::string doc = valid_;
  const size_t pos = doc.find("\"pool\":[");
  ASSERT_NE(pos, std::string::npos);
  // Point the pool at a capture seq that has no serialized image.
  doc.insert(pos + strlen("\"pool\":["), "424242,");
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;
}

// Rewrites the first occurrence of `from` in the valid document.
std::string edited(const std::string& doc, const std::string& from,
                   const std::string& to) {
  std::string out = doc;
  const size_t pos = out.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) out.replace(pos, from.size(), to);
  return out;
}

TEST_F(CheckpointRejectTest, NonHexRngWordIsRejectedNamingTheField) {
  const size_t pos = valid_.find("\"rng\":[\"0x");
  ASSERT_NE(pos, std::string::npos);
  std::string doc = valid_;
  doc[pos + strlen("\"rng\":[\"0x")] = 'g';
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("field 'rng'"), std::string::npos) << error;
}

TEST_F(CheckpointRejectTest, NonDecimalCountIsRejectedNamingTheField) {
  for (const char* bad : {"-600", "600.5", "6e2", "18446744073709551616"}) {
    const std::string doc = edited(valid_, "\"exec_count\":600",
                                   std::string("\"exec_count\":") + bad);
    std::string error;
    Daemon d = matching_daemon();
    EXPECT_FALSE(d.resume(doc, &error)) << bad;
    EXPECT_NE(error.find("field 'exec_count'"), std::string::npos) << error;
  }
}

TEST_F(CheckpointRejectTest, ReorderedKeysAreRejectedNamingTheExpectedKey) {
  const size_t seed_at = valid_.find(",\"seed\":");
  const size_t seed_end = valid_.find(',', seed_at + 1);
  ASSERT_NE(seed_end, std::string::npos);
  // {"version":4,"seed":"0x5",... -> {"seed":"0x5","version":4,...
  const std::string version = valid_.substr(
      valid_.find("\"version\""), seed_at - valid_.find("\"version\""));
  const std::string seed = valid_.substr(seed_at + 1, seed_end - seed_at - 1);
  const std::string doc =
      edited(valid_, version + "," + seed, seed + "," + version);
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("expected key 'version'"), std::string::npos) << error;
}

TEST_F(CheckpointRejectTest, UnknownKeyIsRejectedNamingTheExpectedKey) {
  const std::string doc =
      edited(valid_, "\"devices\":[", "\"extra\":1,\"devices\":[");
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("expected key 'devices', found 'extra'"),
            std::string::npos)
      << error;
}

TEST_F(CheckpointRejectTest, ShortDriverTallyRowIsRejectedNamingTheDriver) {
  // Drop the first entry of A1's first non-empty "visits" row.
  size_t pos = valid_.find("\"visits\":[");
  while (pos != std::string::npos &&
         valid_[pos + strlen("\"visits\":[")] == ']') {
    pos = valid_.find("\"visits\":[", pos + 1);
  }
  ASSERT_NE(pos, std::string::npos);
  const size_t first = pos + strlen("\"visits\":[");
  const size_t comma = valid_.find(',', first);
  ASSERT_LT(comma, valid_.find(']', first));
  std::string doc = valid_;
  doc.erase(first, comma + 1 - first);
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("device A1: driver "), std::string::npos) << error;
  EXPECT_NE(error.find("do not fit"), std::string::npos) << error;
}

TEST_F(CheckpointRejectTest, OverwideNarrowCursorIsRejectedNamingTheField) {
  // The kernel's task cursor is 32 bits wide: 2^32 + 3 must not wrap to 3.
  const size_t pos = valid_.find("\"next_task\":");
  ASSERT_NE(pos, std::string::npos);
  const size_t value = pos + strlen("\"next_task\":");
  std::string doc = valid_;
  doc.replace(value, doc.find_first_of(",}", value) - value, "4294967299");
  std::string error;
  Daemon d = matching_daemon();
  EXPECT_FALSE(d.resume(doc, &error));
  EXPECT_NE(error.find("field 'next_task'"), std::string::npos) << error;
}

// --- file I/O --------------------------------------------------------------

TEST(CheckpointFiles, WriteReadRoundTripCreatingDirectories) {
  const std::string dir = ::testing::TempDir() + "df_checkpoint_io/nested";
  const std::string path = dir + "/checkpoint.json";
  std::string error;
  ASSERT_TRUE(CampaignCheckpoint::write_file(path, "{\"x\": 1}\n", &error))
      << error;
  std::string text;
  ASSERT_TRUE(CampaignCheckpoint::read_file(path, &text, &error)) << error;
  EXPECT_EQ(text, "{\"x\": 1}\n");
}

TEST(CheckpointFiles, MissingFileReadFails) {
  std::string text, error;
  EXPECT_FALSE(CampaignCheckpoint::read_file(
      ::testing::TempDir() + "df_no_such_checkpoint.json", &text, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace df::core
