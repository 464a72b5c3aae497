// Tests for canonicalization, static subsumption (checked against a
// brute-force multiset oracle), Corpus::distill in both static-only and
// replay-oracle modes, and the Engine's scratch-replay distillation
// including the bit-identical-coverage-on-replay contract and a
// differential check of the rewound replayer against fresh devices.
#include "analysis/distill.h"

#include <gtest/gtest.h>

#include <map>

#include "core/descriptions.h"
#include "core/fuzz/engine.h"
#include "device/catalog.h"
#include "dsl/parse.h"
#include "util/hash.h"
#include "util/rng.h"

namespace df::analysis {
namespace {

class DistillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dsl::CallDesc open;
    open.name = "open";
    open.produces = "fd";
    open_ = table_.add(std::move(open));

    dsl::CallDesc close;
    close.name = "close";
    close.destroys = "fd";
    close.params = {handle()};
    close_ = table_.add(std::move(close));

    dsl::CallDesc use;
    use.name = "use";
    use.params = {handle()};
    use_ = table_.add(std::move(use));

    dsl::CallDesc dup;
    dup.name = "dup";
    dup.produces = "fd";
    dup.params = {handle()};
    dup_ = table_.add(std::move(dup));
  }

  static dsl::ParamDesc handle() {
    dsl::ParamDesc p;
    p.kind = dsl::ArgKind::kHandle;
    p.name = "fd";
    p.handle_type = "fd";
    return p;
  }

  static dsl::Call call(const dsl::CallDesc* d,
                        std::vector<dsl::Value> args = {}) {
    dsl::Call c;
    c.desc = d;
    c.args = std::move(args);
    return c;
  }

  static dsl::Value ref(int32_t idx) {
    dsl::Value v;
    v.ref = idx;
    return v;
  }

  // open; use(r0); close(r0) — nothing dead.
  dsl::Program clean() const {
    dsl::Program p;
    p.calls.push_back(call(open_));
    p.calls.push_back(call(use_, {ref(0)}));
    p.calls.push_back(call(close_, {ref(0)}));
    return p;
  }

  dsl::CallTable table_;
  const dsl::CallDesc* open_ = nullptr;
  const dsl::CallDesc* close_ = nullptr;
  const dsl::CallDesc* use_ = nullptr;
  const dsl::CallDesc* dup_ = nullptr;
};

TEST_F(DistillTest, CanonicalizeIsIdentityOnCleanPrograms) {
  dsl::Program p = clean();
  const uint64_t before = dsl::program_hash(p);
  EXPECT_EQ(canonicalize(p), 0u);
  EXPECT_EQ(dsl::program_hash(p), before);
}

TEST_F(DistillTest, CanonicalizeDropsDeadProducerAndRemapsRefs) {
  dsl::Program p;
  p.calls.push_back(call(open_));            // dead: never referenced
  p.calls.push_back(call(open_));            // live: used below
  p.calls.push_back(call(use_, {ref(1)}));
  p.calls.push_back(call(close_, {ref(1)}));
  EXPECT_EQ(canonicalize(p), 1u);
  ASSERT_EQ(p.calls.size(), 3u);
  // The surviving refs now point at the shifted producer.
  EXPECT_EQ(p.calls[1].args[0].ref, 0);
  EXPECT_EQ(p.calls[2].args[0].ref, 0);
  EXPECT_EQ(dsl::program_hash(p), dsl::program_hash(clean()));
}

TEST_F(DistillTest, CanonicalizeRunsToFixpoint) {
  // dup(r0) is dead, and dropping it orphans the open it consumed.
  dsl::Program p;
  p.calls.push_back(call(open_));
  p.calls.push_back(call(dup_, {ref(0)}));
  EXPECT_EQ(canonicalize(p), 2u);
  EXPECT_TRUE(p.calls.empty());
}

TEST_F(DistillTest, CanonicalizeKeepsEffectfulCalls) {
  // Calls that produce nothing (use) or destroy something (close) are never
  // dead, even when structurally dangling.
  dsl::Program p;
  p.calls.push_back(call(use_, {ref(dsl::Value::kNoRef)}));
  p.calls.push_back(call(close_, {ref(dsl::Value::kNoRef)}));
  EXPECT_EQ(canonicalize(p), 0u);
  EXPECT_EQ(p.calls.size(), 2u);
}

TEST_F(DistillTest, StaticFootprintIgnoresDeadCalls) {
  dsl::Program padded;
  padded.calls.push_back(call(open_));  // dead
  padded.calls.push_back(call(open_));
  padded.calls.push_back(call(use_, {ref(1)}));
  padded.calls.push_back(call(close_, {ref(1)}));
  EXPECT_EQ(static_footprint(padded), static_footprint(clean()));
}

TEST_F(DistillTest, SubsumesRespectsCallOrder) {
  dsl::Program ab, ba;
  ab.calls.push_back(call(use_, {ref(dsl::Value::kNoRef)}));
  ab.calls.push_back(call(close_, {ref(dsl::Value::kNoRef)}));
  ba.calls.push_back(call(close_, {ref(dsl::Value::kNoRef)}));
  ba.calls.push_back(call(use_, {ref(dsl::Value::kNoRef)}));
  const auto fa = static_footprint(ab);
  const auto fb = static_footprint(ba);
  // Same call multiset, different adjacency tokens: no subsumption either
  // way, but both subsume their shared single-call prefix and themselves.
  EXPECT_FALSE(subsumes(fa, fb));
  EXPECT_FALSE(subsumes(fb, fa));
  EXPECT_TRUE(subsumes(fa, fa));
  dsl::Program just_use;
  just_use.calls.push_back(call(use_, {ref(dsl::Value::kNoRef)}));
  EXPECT_TRUE(subsumes(static_footprint(just_use), fa));
  EXPECT_TRUE(subsumes(static_footprint(dsl::Program{}), fb));
}

// Brute-force multiset-inclusion oracle.
bool oracle_subsumes(const std::vector<uint64_t>& small,
                     const std::vector<uint64_t>& big) {
  std::map<uint64_t, int> counts;
  for (const uint64_t t : big) ++counts[t];
  for (const uint64_t t : small) {
    if (--counts[t] < 0) return false;
  }
  return true;
}

TEST_F(DistillTest, SubsumesMatchesBruteForceOracleOnRandomPrograms) {
  const dsl::CallDesc* descs[] = {open_, close_, use_, dup_};
  util::Rng rng(42);
  const auto random_program = [&] {
    dsl::Program p;
    const size_t len = rng.below(6);
    for (size_t i = 0; i < len; ++i) {
      const dsl::CallDesc* d = descs[rng.below(4)];
      std::vector<dsl::Value> args;
      for (size_t a = 0; a < d->params.size(); ++a) {
        // Reference the previous call half the time (usually rotten — fine,
        // footprints only read names), else leave unresolved.
        args.push_back(ref(i > 0 && rng.prob(0.5)
                               ? static_cast<int32_t>(i - 1)
                               : dsl::Value::kNoRef));
      }
      p.calls.push_back(call(d, std::move(args)));
    }
    return p;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = static_footprint(random_program());
    const auto b = static_footprint(random_program());
    EXPECT_EQ(subsumes(a, b), oracle_subsumes(a, b));
    EXPECT_EQ(subsumes(b, a), oracle_subsumes(b, a));
    EXPECT_TRUE(subsumes(a, a));
  }
}

core::Seed make_seed(dsl::Program p) {
  core::Seed s;
  s.prog = std::move(p);
  return s;
}

TEST_F(DistillTest, StaticOnlyDistillDropsSubsumedSeeds) {
  core::Corpus corpus;
  dsl::Program padded = clean();
  padded.calls.insert(padded.calls.begin(), call(open_));
  for (auto& c : padded.calls) {  // fix refs after the prepend
    for (auto& v : c.args) {
      if (v.ref >= 0) v.ref += 1;
    }
  }
  ASSERT_TRUE(corpus.add(make_seed(clean())));
  ASSERT_TRUE(corpus.add(make_seed(std::move(padded))));
  const core::DistillStats stats =
      corpus.distill(core::Corpus::FootprintFn{});
  EXPECT_EQ(stats.before, 2u);
  EXPECT_EQ(stats.after, 1u);
  EXPECT_EQ(stats.dropped_static, 1u);
  EXPECT_EQ(stats.dropped_covered, 0u);
  EXPECT_EQ(stats.footprint_union, 0u);  // static-only: no replay oracle
  EXPECT_FALSE(stats.verified);
  EXPECT_FALSE(stats.dry_run);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.at(0).hash, dsl::program_hash(clean()));
}

TEST_F(DistillTest, OracleDistillDropsCoveredSeedsAndVerifies) {
  // Fake replay oracle: one token per call name. Order-insensitive, so the
  // reordered program is dynamically redundant even though its adjacency
  // tokens keep it out of static subsumption's reach.
  const core::Corpus::FootprintFn by_name =
      [](const dsl::Program& p) {
        std::vector<uint64_t> fp;
        for (const auto& c : p.calls) {
          if (c.desc != nullptr) fp.push_back(util::fnv1a(c.desc->name));
        }
        return fp;
      };
  // `full` = open;use;close. `reordered` = close;use — its close→use
  // adjacency hash is not among full's pairs (open→use, use→close), and
  // neither call is a dead producer, so canonicalization keeps both and
  // static subsumption cannot claim it; only the replay oracle can.
  // `just_open` canonicalizes to the empty program (its open is dead), so
  // static subsumption drops it.
  dsl::Program full, reordered, just_open;
  full.calls.push_back(call(open_));
  full.calls.push_back(call(use_, {ref(0)}));
  full.calls.push_back(call(close_, {ref(0)}));
  reordered.calls.push_back(call(close_, {ref(dsl::Value::kNoRef)}));
  reordered.calls.push_back(call(use_, {ref(dsl::Value::kNoRef)}));
  just_open.calls.push_back(call(open_));

  core::Corpus corpus;
  ASSERT_TRUE(corpus.add(make_seed(full)));
  ASSERT_TRUE(corpus.add(make_seed(reordered)));
  ASSERT_TRUE(corpus.add(make_seed(just_open)));

  // Dry run first: stats computed, corpus untouched.
  const core::DistillStats dry = corpus.distill(by_name, /*dry_run=*/true);
  EXPECT_TRUE(dry.dry_run);
  EXPECT_EQ(dry.before, 3u);
  EXPECT_EQ(dry.after, 1u);
  EXPECT_EQ(corpus.size(), 3u);

  const core::DistillStats stats = corpus.distill(by_name);
  EXPECT_EQ(stats.before, 3u);
  EXPECT_EQ(stats.after, 1u);
  EXPECT_EQ(stats.dropped_covered, 1u);  // reordered: covered by full
  EXPECT_EQ(stats.dropped_static, 1u);   // just_open: subsumed by full
  EXPECT_EQ(stats.footprint_union, 3u);  // {open, use, close}
  EXPECT_TRUE(stats.verified);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.at(0).hash, dsl::program_hash(full));

  // Hashes of distilled-away seeds stay registered: a dropped program never
  // re-enters the corpus.
  EXPECT_FALSE(corpus.add(make_seed(reordered)));
  EXPECT_FALSE(corpus.add(make_seed(just_open)));
}

TEST_F(DistillTest, DistillEmptyCorpus) {
  core::Corpus corpus;
  const core::DistillStats stats =
      corpus.distill(core::Corpus::FootprintFn{});
  EXPECT_EQ(stats.before, 0u);
  EXPECT_EQ(stats.after, 0u);
}

TEST(EngineDistillTest, ScratchReplayDistillsAndVerifies) {
  auto dev = device::make_device("A1", 7);
  ASSERT_NE(dev, nullptr);
  core::EngineConfig cfg;
  cfg.seed = 7;
  core::Engine eng(*dev, cfg);
  eng.run(600);
  ASSERT_GT(eng.corpus().size(), 1u);
  const size_t before = eng.corpus().size();

  // Dry run: stats exposed, campaign corpus untouched.
  const core::DistillStats dry = eng.distill_corpus(/*dry_run=*/true);
  EXPECT_TRUE(dry.dry_run);
  EXPECT_EQ(dry.before, before);
  EXPECT_EQ(eng.corpus().size(), before);
  EXPECT_TRUE(eng.has_distill_stats());
  EXPECT_EQ(eng.distill_stats().before, before);
  // The scratch-replay oracle is deterministic, so the kept set must replay
  // to the exact footprint union (the distillation contract).
  EXPECT_TRUE(dry.verified);
  EXPECT_GT(dry.footprint_union, 0u);

  // Destructive distill shrinks (or keeps) the corpus and stays verified.
  const core::DistillStats real = eng.distill_corpus(/*dry_run=*/false);
  EXPECT_FALSE(real.dry_run);
  EXPECT_EQ(real.before, before);
  EXPECT_EQ(real.after, eng.corpus().size());
  EXPECT_LE(real.after, before);
  EXPECT_TRUE(real.verified);
  EXPECT_EQ(real.after, dry.after);  // same oracle, same greedy outcome
}

TEST(EngineDistillTest, ReplayFootprintIsDeterministicPerProgram) {
  auto dev = device::make_device("A1", 9);
  core::EngineConfig cfg;
  cfg.seed = 9;
  core::Engine eng(*dev, cfg);
  eng.run(200);
  ASSERT_FALSE(eng.corpus().empty());
  const dsl::Program& prog = eng.corpus().at(0).prog;
  const auto fp1 = eng.replay_footprint(prog);
  const auto fp2 = eng.replay_footprint(prog);
  EXPECT_FALSE(fp1.empty());
  EXPECT_EQ(fp1, fp2);
}

TEST(EngineDistillTest, DryRunDistillDoesNotPerturbTheCampaign) {
  // Interleaving a dry-run distill (what the daemon does at checkpoint
  // boundaries) must leave the campaign bit-identical to an uninterrupted
  // run: the oracle replays on a scratch device, never the campaign one.
  core::EngineConfig cfg;
  cfg.seed = 11;
  auto straight_dev = device::make_device("A1", 11);
  core::Engine straight(*straight_dev, cfg);
  straight.run(400);

  auto interleaved_dev = device::make_device("A1", 11);
  core::Engine interleaved(*interleaved_dev, cfg);
  interleaved.run(150);
  interleaved.distill_corpus(/*dry_run=*/true);
  interleaved.run(250);

  EXPECT_EQ(straight.executions(), interleaved.executions());
  EXPECT_EQ(straight.kernel_coverage(), interleaved.kernel_coverage());
  EXPECT_EQ(straight.total_coverage(), interleaved.total_coverage());
  EXPECT_EQ(straight.corpus().size(), interleaved.corpus().size());
  for (size_t i = 0; i < straight.corpus().size(); ++i) {
    EXPECT_EQ(straight.corpus().at(i).hash, interleaved.corpus().at(i).hash);
  }
}

// The reference oracle for the rewound replayer: a brand-new catalog device
// and broker for every replay, rebooted before the program runs, with the
// footprint (features plus driver state-transition tokens) computed here
// from scratch.
class FreshDeviceOracle {
 public:
  explicit FreshDeviceOracle(core::Engine& eng)
      : id_(eng.device().spec().id),
        seed_(eng.device().seed()),
        spec_(core::make_spec_table(eng.calls())) {
    opt_.hal_directional = eng.config().hal_feedback;
    opt_.reboot_on_bug = false;
  }

  std::vector<uint64_t> operator()(const dsl::Program& prog) {
    auto dev = device::make_device(id_, seed_);
    core::Broker broker(*dev, spec_);
    dev->reboot();
    const auto& drvs = dev->kernel().drivers();
    std::vector<std::vector<uint64_t>> before;
    for (const auto& d : drvs) before.push_back(d->state_matrix());
    const core::ExecResult res = broker.execute(prog, opt_);
    last_bug_ = res.any_bug();
    std::vector<uint64_t> fp = res.features;
    for (size_t di = 0; di < drvs.size(); ++di) {
      const auto& after = drvs[di]->state_matrix();
      const size_t n = drvs[di]->state_names().size();
      for (size_t cell = 0; n != 0 && cell < after.size(); ++cell) {
        const uint64_t prev =
            cell < before[di].size() ? before[di][cell] : 0;
        if (after[cell] > prev) {
          fp.push_back((0xFFFEull << 48) | (uint64_t{di} << 32) |
                       (uint64_t{cell / n} << 16) | uint64_t{cell % n});
        }
      }
    }
    return fp;
  }

  bool last_bug() const { return last_bug_; }

 private:
  std::string id_;
  uint64_t seed_;
  trace::SpecTable spec_;
  core::ExecOptions opt_;
  bool last_bug_ = false;
};

// One handcrafted bug trigger per catalog device (Table II reproducers);
// A1's lockdep BUG and the A2/D KASAN reports all latch a kernel panic.
const std::map<std::string, std::string>& bug_programs() {
  static const std::map<std::string, std::string> kPrograms = {
      {"A1",
       "r0 = hal$sensors.activate(0x2, 0x1)\n"
       "hal$sensors.setDelay(0x2, 0x1f4)\n"
       "hal$sensors.poll(0x10)\n"
       "hal$sensors.batch(0x2, 0x40, 0xc)\n"},
      {"A2",
       "hal$bluetooth.enable()\n"
       "hal$bluetooth.setCodecs(0x28, blob\"\")\n"
       "hal$bluetooth.readCodecs()\n"},
      {"B",
       "r0 = hal$bluetooth.connectProfile(0x19)\n"
       "hal$bluetooth.disconnectProfile(r0)\n"},
      {"C1",
       "r0 = hal$camera.openCamera(0x0)\n"
       "hal$camera.configureStreams(r0, 0x2, 0x500, 0x2d0)\n"
       "hal$camera.stopStreams(r0)\n"
       "hal$camera.capture(r0, 0x1)\n"},
      {"C2",
       "hal$wifi.scan()\n"
       "hal$wifi.setPowerSave(0x2)\n"
       "hal$wifi.setRateMask(0x4, blob\"01020304\")\n"
       "hal$wifi.setRateMask(0x0, blob\"\")\n"
       "hal$wifi.connect(0x0)\n"},
      {"D",
       "r0 = hal$bluetooth.listenProfile(0x19)\n"
       "r1 = hal$bluetooth.connectProfile(0x19)\n"
       "r2 = hal$bluetooth.acceptProfile(r0)\n"
       "hal$bluetooth.cleanup()\n"},
      {"E",
       "r0 = hal$camera.openCamera(0x0)\n"
       "hal$camera.configureStreams(r0, 0x2, 0x280, 0x1e0)\n"
       "hal$camera.capture(r0, 0x1)\n"
       "hal$camera.setVendorFormat(r0, 0x3)\n"
       "hal$camera.getCapabilities(r0)\n"},
  };
  return kPrograms;
}

// Differential check of the rewound replayer: on every catalog device
// (odd ones with substrate faults in the campaign), each corpus seed and a
// bug-triggering program, replayed in one sequence on one scratch device,
// must yield exactly the footprint a fresh device reports; and a dry-run
// distill through the rewound path must report the stats the fresh-device
// oracle yields.
TEST(EngineDistillTest, RewoundReplayMatchesFreshDevicePerReplay) {
  size_t index = 0;
  for (const auto& spec : device::device_table()) {
    SCOPED_TRACE(spec.id);
    const uint64_t seed = 31 + index;
    auto dev = device::make_device(spec.id, seed);
    ASSERT_NE(dev, nullptr);
    core::EngineConfig cfg;
    cfg.seed = seed;
    if (index++ % 2 == 1) cfg.fault.rate = 0.02;
    core::Engine eng(*dev, cfg);
    eng.run(600);
    ASSERT_GT(eng.corpus().size(), 1u);

    std::string err;
    const auto bug =
        dsl::parse_program(bug_programs().at(spec.id), eng.calls(), &err);
    ASSERT_TRUE(bug.has_value()) << err;
    FreshDeviceOracle oracle(eng);
    oracle(*bug);
    ASSERT_TRUE(oracle.last_bug());

    // The bug program runs first, mid-sequence and last, so seeds replay
    // right after a latched panic, KASAN report or HAL crash.
    std::vector<dsl::Program> progs = {*bug};
    for (size_t i = 0; i < eng.corpus().size(); ++i) {
      progs.push_back(eng.corpus().at(i).prog);
      if (i == eng.corpus().size() / 2) progs.push_back(*bug);
    }
    progs.push_back(*bug);

    core::FootprintReplayer replayer = eng.footprint_replayer();
    for (size_t i = 0; i < progs.size(); ++i) {
      ASSERT_EQ(replayer.replay(progs[i]), oracle(progs[i]))
          << "replay " << i << " of " << progs.size();
    }
    EXPECT_EQ(replayer.builds(), 1u);  // one scratch device for them all

    core::Corpus reference = eng.corpus();
    const core::DistillStats want = reference.distill(
        [&](const dsl::Program& p) { return oracle(p); }, /*dry_run=*/true);
    const core::DistillStats got = eng.distill_corpus(/*dry_run=*/true);
    EXPECT_EQ(got.before, want.before);
    EXPECT_EQ(got.after, want.after);
    EXPECT_EQ(got.dropped_static, want.dropped_static);
    EXPECT_EQ(got.dropped_covered, want.dropped_covered);
    EXPECT_EQ(got.footprint_union, want.footprint_union);
    EXPECT_EQ(got.verified, want.verified);
    EXPECT_TRUE(got.verified);
    EXPECT_TRUE(got.dry_run);
  }
}

}  // namespace
}  // namespace df::analysis
