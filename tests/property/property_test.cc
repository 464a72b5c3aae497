// Property-based suites: parameterized sweeps over seeds asserting
// structural invariants of the core data structures under randomized use.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/distill.h"
#include "analysis/semantic.h"
#include "core/descriptions.h"
#include "core/exec/broker.h"
#include "core/gen/generator.h"
#include "core/relation/graph.h"
#include "device/catalog.h"
#include "device/snapshot.h"
#include "dsl/fmt.h"
#include "dsl/parse.h"
#include "hal/parcel.h"
#include "kernel/kasan.h"

namespace df {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

// --- Relation graph: Eq. (1) mass conservation under arbitrary histories ---

TEST_P(SeededProperty, RelationGraphInvariants) {
  util::Rng rng(GetParam());
  dsl::CallTable table;
  std::vector<const dsl::CallDesc*> descs;
  for (int i = 0; i < 12; ++i) {
    dsl::CallDesc d;
    d.name = "c" + std::to_string(i);
    descs.push_back(table.add(std::move(d)));
  }
  core::RelationGraph g;
  for (const auto* d : descs) g.add_vertex(d, rng.uniform() + 0.01);

  size_t observed = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto* a = descs[rng.below(descs.size())];
    const auto* b = descs[rng.below(descs.size())];
    if (a != b) {
      g.observe_relation(a, b);
      ++observed;
    }
    if (rng.chance(1, 20)) g.decay(0.8 + rng.uniform() * 0.19);
    if (step % 100 == 0) {
      for (const auto* v : descs) {
        const double in = g.in_weight_sum(v);
        ASSERT_GE(in, 0.0);
        ASSERT_LE(in, 1.0 + 1e-9);
      }
    }
  }
  ASSERT_GT(observed, 0u);
  // Edge weights themselves stay in (0, 1].
  for (const auto* a : descs) {
    for (const auto& [b, w] : g.out_edges(a)) {
      ASSERT_GT(w, 0.0);
      ASSERT_LE(w, 1.0 + 1e-9);
    }
  }
}

// --- Generator: every emitted program is structurally valid and formats/
// parses losslessly -------------------------------------------------------------

TEST_P(SeededProperty, GeneratorProgramsRoundTripThroughText) {
  auto dev = device::make_device("A1", GetParam());
  dsl::CallTable table;
  core::add_syscall_descriptions(table, *dev);
  for (const auto& svc : dev->services()) {
    std::vector<std::pair<uint32_t, double>> w;
    for (const auto& uw : svc->app_usage_profile()) {
      w.emplace_back(uw.code, uw.weight);
    }
    core::add_hal_interface(table, svc->descriptor(), svc->interface(), w);
  }
  core::RelationGraph rel;
  for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
  core::Corpus corpus;
  util::Rng rng(GetParam());
  core::Generator gen(table, rel, corpus, rng, {});

  dsl::Program prog = gen.generate_fresh();
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(prog.valid()) << dsl::format_program(prog);
    const std::string text = dsl::format_program(prog);
    std::string err;
    auto reparsed = dsl::parse_program(text, table, &err);
    ASSERT_TRUE(reparsed.has_value()) << err << "\n" << text;
    ASSERT_EQ(dsl::format_program(*reparsed), text);
    ASSERT_EQ(dsl::program_hash(*reparsed), dsl::program_hash(prog));
    prog = rng.chance(1, 2) ? gen.mutate(prog) : gen.generate_fresh();
  }
}

// --- Program surgery: remove_call/repair_refs never break validity ------------

TEST_P(SeededProperty, ProgramSurgeryPreservesValidity) {
  auto dev = device::make_device("A2", GetParam());
  dsl::CallTable table;
  core::add_syscall_descriptions(table, *dev);
  core::RelationGraph rel;
  for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
  core::Corpus corpus;
  util::Rng rng(GetParam() * 31 + 1);
  core::Generator gen(table, rel, corpus, rng, {});

  for (int round = 0; round < 60; ++round) {
    dsl::Program p = gen.generate_fresh();
    while (p.size() > 1) {
      p.remove_call(rng.below(p.size()));
      ASSERT_TRUE(p.valid());
    }
  }
}

// --- Static analysis: repair and canonicalize are idempotent fixpoint
// operators that preserve structural validity --------------------------------

TEST_P(SeededProperty, RepairAndCanonicalizeAreIdempotent) {
  auto dev = device::make_device("A1", GetParam());
  dsl::CallTable table;
  core::add_syscall_descriptions(table, *dev);
  core::RelationGraph rel;
  for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
  core::Corpus corpus;
  util::Rng rng(GetParam() * 17 + 3);
  core::Generator gen(table, rel, corpus, rng, {});
  const analysis::ProgramLint lint;  // strict offline options

  for (int round = 0; round < 40; ++round) {
    dsl::Program p = gen.generate_fresh();
    // Dirty some handle refs so repair has real work: retarget to an
    // arbitrary earlier call or sever entirely (both structurally valid).
    for (size_t i = 0; i < p.calls.size(); ++i) {
      for (auto& v : p.calls[i].args) {
        if (v.ref >= 0 && rng.chance(1, 3)) {
          v.ref = (i > 0 && rng.chance(1, 2))
                      ? static_cast<int32_t>(rng.below(i))
                      : dsl::Value::kNoRef;
        }
      }
    }
    lint.repair(p);
    ASSERT_TRUE(p.valid()) << dsl::format_program(p);
    const uint64_t repaired = dsl::program_hash(p);
    ASSERT_EQ(lint.repair(p), 0u);  // second repair finds nothing
    ASSERT_EQ(dsl::program_hash(p), repaired);

    dsl::Program canon = dsl::clone(p);
    analysis::canonicalize(canon);
    ASSERT_TRUE(canon.valid()) << dsl::format_program(canon);
    const uint64_t canonical = dsl::program_hash(canon);
    ASSERT_EQ(analysis::canonicalize(canon), 0u);  // fixpoint reached
    ASSERT_EQ(dsl::program_hash(canon), canonical);
    // Canonicalization only removes dead producers, so the static
    // footprint of a program and its canonical form are identical.
    ASSERT_EQ(analysis::static_footprint(p), analysis::static_footprint(canon));
    // A canonical program has no dead-statement findings left.
    ASSERT_FALSE(lint.analyze(canon).has(analysis::Pass::kDeadStatement))
        << dsl::format_program(canon);
  }
}

// The gate's errors-only path must give the full report's verdict under
// every option set, on clean programs and on every kind of rot.
TEST_P(SeededProperty, LintCleanMatchesAnalyze) {
  auto dev = device::make_device("A1", GetParam());
  dsl::CallTable table;
  core::add_syscall_descriptions(table, *dev);
  core::RelationGraph rel;
  for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
  core::Corpus corpus;
  util::Rng rng(GetParam() * 29 + 5);
  core::Generator gen(table, rel, corpus, rng, {});

  std::vector<analysis::LintOptions> option_sets(4);
  option_sets[1].stale_handle_allowance = 1;
  option_sets[1].dead_statements = false;
  option_sets[2].use_after_close = false;
  option_sets[3].type_width = false;
  option_sets[3].dangling_refs = false;

  size_t clean_seen = 0, unclean_seen = 0;
  for (int round = 0; round < 80; ++round) {
    dsl::Program p = gen.generate_fresh();
    for (size_t i = 0; i < p.calls.size(); ++i) {
      for (auto& v : p.calls[i].args) {
        if (rng.chance(1, 6)) v.scalar = rng.next();
        if (v.ref >= 0 && rng.chance(1, 4)) {
          v.ref = static_cast<int32_t>(rng.below(p.calls.size() + 1)) - 1;
        }
      }
    }
    if (rng.chance(1, 8) && !p.calls.empty()) {
      auto& args = p.calls[rng.below(p.calls.size())].args;
      if (!args.empty()) args.pop_back();  // arity rot
    }
    if (rng.chance(1, 10) && !p.calls.empty()) {
      p.calls[rng.below(p.calls.size())].desc = nullptr;
    }
    for (const analysis::LintOptions& o : option_sets) {
      const analysis::ProgramLint lint(o);
      const bool want = lint.analyze(p).clean();
      ASSERT_EQ(lint.clean(p), want) << dsl::format_program(p);
      ++(want ? clean_seen : unclean_seen);
    }
  }
  EXPECT_GT(clean_seen, 0u);
  EXPECT_GT(unclean_seen, 0u);
}

TEST_P(SeededProperty, CleanProgramsAreRepairFixpoints) {
  auto dev = device::make_device("A2", GetParam());
  dsl::CallTable table;
  core::add_syscall_descriptions(table, *dev);
  core::RelationGraph rel;
  for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
  core::Corpus corpus;
  util::Rng rng(GetParam() * 13 + 7);
  core::Generator gen(table, rel, corpus, rng, {});
  const analysis::ProgramLint lint;

  size_t clean_seen = 0;
  for (int round = 0; round < 60; ++round) {
    dsl::Program p = gen.generate_fresh();
    if (!lint.analyze(p).clean()) continue;
    ++clean_seen;
    // Hash stability: repair must be the identity on a clean program.
    const uint64_t before = dsl::program_hash(p);
    ASSERT_EQ(lint.repair(p), 0u) << dsl::format_program(p);
    ASSERT_EQ(dsl::program_hash(p), before);
  }
  ASSERT_GT(clean_seen, 0u);  // the generator's gate keeps most programs clean
}

// --- Parcel: arbitrary byte strings never crash the readers -------------------

TEST_P(SeededProperty, ParcelReadersTotalOnGarbage) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> bytes(rng.below(64));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
    hal::Parcel p(bytes);
    // Interleave reads of every kind; must terminate and never throw.
    for (int k = 0; k < 10; ++k) {
      switch (rng.below(5)) {
        case 0: p.read_u32(); break;
        case 1: p.read_u64(); break;
        case 2: p.read_string(); break;
        case 3: p.read_blob(); break;
        default: p.read_bool(); break;
      }
    }
    SUCCEED();
  }
}

// --- KASAN heap: random alloc/free/access traffic keeps accounting sane -------

TEST_P(SeededProperty, KasanHeapAccountingInvariant) {
  util::Rng rng(GetParam());
  kernel::Dmesg dmesg;
  kernel::Kasan kasan(dmesg);
  std::vector<std::pair<kernel::HeapPtr, size_t>> live;
  size_t live_bytes = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.below(3);
    if (op == 0 || live.empty()) {
      const size_t size = 1 + rng.below(256);
      live.emplace_back(kasan.alloc(size, "prop"), size);
      live_bytes += size;
    } else if (op == 1) {
      const size_t idx = rng.below(live.size());
      kasan.free(live[idx].first, "prop", "free");
      live_bytes -= live[idx].second;
      live.erase(live.begin() + static_cast<long>(idx));
    } else {
      const size_t idx = rng.below(live.size());
      const auto [ptr, size] = live[idx];
      // In-bounds access must always pass.
      const size_t off = rng.below(size);
      ASSERT_TRUE(kasan.check(ptr, off, 1, kernel::Access::kRead, "p", "f"));
    }
    ASSERT_EQ(kasan.heap().live_count(), live.size());
    ASSERT_EQ(kasan.heap().live_bytes(), live_bytes);
  }
  ASSERT_EQ(kasan.report_count(), 0u);
  ASSERT_FALSE(dmesg.panicked());
}

// --- Device kernels: random syscall storms never corrupt process state --------

TEST_P(SeededProperty, RandomSyscallStormIsMemorySafe) {
  auto dev = device::make_device("B", GetParam());
  auto& k = dev->kernel();
  const auto task = k.create_task(kernel::TaskOrigin::kNative, "storm");
  util::Rng rng(GetParam() * 7 + 5);
  const auto paths = k.registry().paths();
  for (int i = 0; i < 4000; ++i) {
    kernel::SyscallReq req;
    req.nr = static_cast<kernel::Sys>(
        rng.below(static_cast<uint64_t>(kernel::Sys::kCount)));
    req.fd = static_cast<int32_t>(rng.below(16));
    req.arg = rng.next() % 0x10000;
    req.arg2 = rng.below(16);
    req.arg3 = rng.below(4);
    req.size = rng.below(256);
    if (!paths.empty() && rng.chance(1, 2)) {
      req.path = paths[rng.below(paths.size())];
    }
    req.data.resize(rng.below(64));
    for (auto& b : req.data) b = static_cast<uint8_t>(rng.next());
    k.syscall(task, req);
    if (k.panicked()) dev->reboot();
  }
  SUCCEED();  // no crash / sanitizer violation
}

// --- Snapshots: every driver's state walk round-trips under a
// randomized warm-up, across the whole device catalog (DESIGN.md §13) -------

TEST_P(SeededProperty, DriverStateSaveLoadRoundTripsAcrossCatalog) {
  std::set<std::string> seen_drivers;
  for (const auto& spec : device::device_table()) {
    auto dev = device::make_device(spec.id, GetParam());
    dsl::CallTable table;
    core::add_syscall_descriptions(table, *dev);
    for (const auto& svc : dev->services()) {
      std::vector<std::pair<uint32_t, double>> w;
      for (const auto& uw : svc->app_usage_profile()) {
        w.emplace_back(uw.code, uw.weight);
      }
      core::add_hal_interface(table, svc->descriptor(), svc->interface(), w);
    }
    const trace::SpecTable spec_table = core::make_spec_table(table);
    core::Broker broker(*dev, spec_table);
    core::RelationGraph rel;
    for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
    core::Corpus corpus;
    util::Rng rng(GetParam() * 101 + 7);
    core::Generator gen(table, rel, corpus, rng, {});

    // Randomized warm-up: drive the drivers into arbitrary live states.
    for (int i = 0; i < 25; ++i) broker.execute(gen.generate_fresh());

    // Pin the state, remember what every driver looked like at the pin.
    const device::StateSnapshot snap = broker.capture_snapshot();
    struct Saved {
      size_t state = 0;
      std::string bytes;
    };
    std::map<std::string, Saved> want;
    for (const auto& d : dev->kernel().drivers()) {
      kernel::StateArchive b;
      d->state(b);
      want[std::string(d->name())] = {
          d->current_state(), std::string(b.bytes().begin(), b.bytes().end())};
      seen_drivers.insert(std::string(d->name()));
    }

    auto run_probes = [&](const std::vector<dsl::Program>& probes) {
      std::string fp;
      for (const auto& p : probes) {
        const core::ExecResult r = broker.execute(p);
        for (const int64_t v : r.rets) fp += std::to_string(v) + ",";
        fp += "|" + std::to_string(r.features.size()) + ";";
      }
      return fp;
    };
    std::vector<dsl::Program> probes;
    for (int i = 0; i < 4; ++i) probes.push_back(gen.generate_fresh());
    const std::string replay_want = run_probes(probes);

    // Perturb well past the pin, then rewind.
    for (int i = 0; i < 15; ++i) broker.execute(gen.generate_fresh());
    // Restore must be dmesg-silent and must not rewind campaign-cumulative
    // tallies (state-visit counts and transition matrices survive as they
    // stood just before the restore).
    const uint64_t dmesg_before = dev->kernel().dmesg().next_seq();
    std::map<std::string, std::pair<std::vector<uint64_t>,
                                    std::vector<uint64_t>>> tallies;
    for (const auto& d : dev->kernel().drivers()) {
      tallies[std::string(d->name())] = {d->state_visits(), d->state_matrix()};
    }
    std::string error;
    ASSERT_TRUE(broker.restore_snapshot(snap, &error))
        << spec.id << ": " << error;
    EXPECT_EQ(dev->kernel().dmesg().next_seq(), dmesg_before) << spec.id;
    for (const auto& d : dev->kernel().drivers()) {
      const auto& t = tallies.at(std::string(d->name()));
      EXPECT_EQ(d->state_visits(), t.first) << spec.id << "/" << d->name();
      EXPECT_EQ(d->state_matrix(), t.second) << spec.id << "/" << d->name();
    }

    // Byte-level check: every driver reports exactly the pinned state. This
    // alone can't catch a field *both* save and load forgot, hence the
    // behavioral replay below.
    for (const auto& d : dev->kernel().drivers()) {
      const Saved& w = want.at(std::string(d->name()));
      EXPECT_EQ(d->current_state(), w.state) << spec.id << "/" << d->name();
      kernel::StateArchive b;
      d->state(b);
      EXPECT_EQ(std::string(b.bytes().begin(), b.bytes().end()), w.bytes)
          << spec.id << "/" << d->name();
    }
    // Behavioral check: the same probes produce the same returns/features.
    EXPECT_EQ(run_probes(probes), replay_want) << spec.id;
  }
  // The catalog exercises the full driver roster.
  EXPECT_GE(seen_drivers.size(), 11u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace df
