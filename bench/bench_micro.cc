// Component microbenchmarks (google-benchmark): throughput of the pieces
// that dominate a fuzzing campaign — generation, execution, feedback
// merging, probing, and the relation-graph update rule — plus the
// observability primitives.
//
// Before the google-benchmark suite runs, an engine-step overhead probe
// measures campaign throughput with observability detached vs attached and
// writes BENCH_micro.json (instrumentation contract: the detached engine —
// no sink attached — must stay within noise of the pre-obs engine, and the
// attached engine within a few percent of detached).
#include <benchmark/benchmark.h>

#include <unordered_set>

#include "baseline/syzkaller.h"
#include "bench/bench_util.h"
#include "kernel/kcov.h"
#include "core/descriptions.h"
#include "core/exec/broker.h"
#include "core/feedback/coverage.h"
#include "core/fuzz/engine.h"
#include "core/gen/generator.h"
#include "core/probe/hal_probe.h"
#include "device/catalog.h"
#include "device/snapshot.h"
#include "dsl/fmt.h"
#include "dsl/parse.h"
#include "hal/parcel.h"
#include "obs/obs.h"

namespace {

using namespace df;
using namespace df::bench;

void BM_RngNext(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ParcelRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    hal::Parcel p;
    p.write_u32(1);
    p.write_u64(2);
    p.write_string("android.hardware.test");
    p.write_blob(std::vector<uint8_t>(32, 7));
    p.rewind();
    benchmark::DoNotOptimize(p.read_u32());
    benchmark::DoNotOptimize(p.read_u64());
    benchmark::DoNotOptimize(p.read_string());
    benchmark::DoNotOptimize(p.read_blob());
  }
}
BENCHMARK(BM_ParcelRoundTrip);

void BM_RelationObserve(benchmark::State& state) {
  dsl::CallTable table;
  std::vector<const dsl::CallDesc*> descs;
  for (int i = 0; i < 128; ++i) {
    dsl::CallDesc d;
    d.name = "c" + std::to_string(i);
    descs.push_back(table.add(std::move(d)));
  }
  core::RelationGraph g;
  for (const auto* d : descs) g.add_vertex(d, 1.0);
  util::Rng rng(1);
  for (auto _ : state) {
    g.observe_relation(descs[rng.below(descs.size())],
                       descs[rng.below(descs.size())]);
  }
}
BENCHMARK(BM_RelationObserve);

// One fully assembled device + call table. fixture() is the instance shared
// across cases; cases that need a pristine device build their own.
struct Fixture {
  Fixture() {
    dev = device::make_device("A1", 1);
    core::add_syscall_descriptions(table, *dev);
    for (const auto& svc : dev->services()) {
      std::vector<std::pair<uint32_t, double>> w;
      for (const auto& uw : svc->app_usage_profile()) {
        w.emplace_back(uw.code, uw.weight);
      }
      core::add_hal_interface(table, svc->descriptor(), svc->interface(), w);
    }
    spec = core::make_spec_table(table);
    for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
  }
  std::unique_ptr<device::Device> dev;
  dsl::CallTable table;
  trace::SpecTable spec;
  core::RelationGraph rel;
  core::Corpus corpus;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_GenerateFresh(benchmark::State& state) {
  auto& f = fixture();
  util::Rng rng(2);
  core::Generator gen(f.table, f.rel, f.corpus, rng, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_fresh());
  }
}
BENCHMARK(BM_GenerateFresh);

void BM_FormatParseRoundTrip(benchmark::State& state) {
  auto& f = fixture();
  util::Rng rng(3);
  core::Generator gen(f.table, f.rel, f.corpus, rng, {});
  const dsl::Program prog = gen.generate_fresh();
  for (auto _ : state) {
    const std::string text = dsl::format_program(prog);
    benchmark::DoNotOptimize(dsl::parse_program(text, f.table));
  }
}
BENCHMARK(BM_FormatParseRoundTrip);

// The gbench cases below that execute on the device build their own Fixture:
// the shared one has been driven through every earlier case's executions,
// which would leave its device state, and so its costs, depending on case
// order.
void BM_BrokerExecute(benchmark::State& state) {
  Fixture f;
  core::Broker broker(*f.dev, f.spec);
  util::Rng rng(4);
  core::Generator gen(f.table, f.rel, f.corpus, rng, {});
  std::vector<dsl::Program> progs;
  for (int i = 0; i < 64; ++i) progs.push_back(gen.generate_fresh());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.execute(progs[i++ % progs.size()]));
  }
}
BENCHMARK(BM_BrokerExecute);

void BM_HalProbing(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto dev = device::make_device("A1", 1);
    state.ResumeTiming();
    core::HalProber prober(*dev, 1);
    benchmark::DoNotOptimize(prober.probe(100));
  }
}
BENCHMARK(BM_HalProbing)->Unit(benchmark::kMillisecond);

void BM_EngineStep(benchmark::State& state) {
  auto dev = device::make_device("A2", 1);
  core::EngineConfig cfg;
  cfg.seed = 1;
  core::Engine eng(*dev, cfg);
  eng.setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.step());
  }
}
BENCHMARK(BM_EngineStep);

// Same workload with full observability attached (phase timers, counters,
// milestone trace events): the instrumented-campaign configuration.
void BM_EngineStepObserved(benchmark::State& state) {
  auto dev = device::make_device("A2", 1);
  core::EngineConfig cfg;
  cfg.seed = 1;
  core::Engine eng(*dev, cfg);
  obs::Observability obs;
  obs.trace.set_record_execs(false);
  eng.attach_observability(&obs);
  eng.setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.step());
  }
}
BENCHMARK(BM_EngineStepObserved);

void BM_SyzkallerStep(benchmark::State& state) {
  auto dev = device::make_device("A2", 1);
  baseline::SyzkallerFuzzer syz(*dev, 1);
  syz.setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(syz.step());
  }
}
BENCHMARK(BM_SyzkallerStep);

void BM_DeviceReboot(benchmark::State& state) {
  auto dev = device::make_device("A1", 1);
  for (auto _ : state) {
    dev->reboot();
  }
}
BENCHMARK(BM_DeviceReboot);

// --- snapshot layer (DESIGN.md §13) -----------------------------------------
// Capture/restore cost vs the full reestablish path they replace: a reboot
// plus re-executing the programs that established the state. The
// BENCH_micro.json "snapshot" section exports the same three costs.

// Warms `dev` through `broker` with `total` generated programs and returns
// the last `keep` of them (the establishment prefix a fork would skip).
std::vector<dsl::Program> warm_device(Fixture& f, core::Broker& broker,
                                      uint64_t seed, int total, int keep) {
  util::Rng rng(seed);
  core::Generator gen(f.table, f.rel, f.corpus, rng, {});
  std::vector<dsl::Program> kept;
  for (int i = 0; i < total; ++i) {
    dsl::Program p = gen.generate_fresh();
    broker.execute(p);
    if (i >= total - keep) kept.push_back(std::move(p));
  }
  return kept;
}

void BM_SnapshotCapture(benchmark::State& state) {
  Fixture f;
  core::Broker broker(*f.dev, f.spec);
  warm_device(f, broker, 31, 50, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device::capture_snapshot(*f.dev, broker.native_task()));
  }
}
BENCHMARK(BM_SnapshotCapture);

void BM_SnapshotRestore(benchmark::State& state) {
  Fixture f;
  core::Broker broker(*f.dev, f.spec);
  warm_device(f, broker, 32, 50, 0);
  const device::StateSnapshot snap =
      device::capture_snapshot(*f.dev, broker.native_task());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device::restore_snapshot(*f.dev, broker.native_task(), snap));
  }
}
BENCHMARK(BM_SnapshotRestore);

// What re-materializing the captured state costs without a snapshot:
// reboot, then re-execute the full establishment history since boot (the
// 50 programs that built the state). Snapshot restore is O(state bytes);
// replay is O(history length) — the asymmetry snapshot forking exploits.
// (The engine's reestablish() replays only a 4-seed rewarm suffix, which
// is cheaper but *loses* the deep state instead of recovering it.)
void BM_FullReestablish(benchmark::State& state) {
  Fixture f;
  core::Broker broker(*f.dev, f.spec);
  const std::vector<dsl::Program> est = warm_device(f, broker, 33, 50, 50);
  for (auto _ : state) {
    f.dev->reboot();
    for (const dsl::Program& p : est) broker.execute(p);
  }
}
BENCHMARK(BM_FullReestablish);

// Ablation microbench for the decay design choice (DESIGN.md SS4): cost of
// a full decay sweep at a realistic learned-edge count.
void BM_RelationDecay(benchmark::State& state) {
  auto& f = fixture();
  core::RelationGraph g;
  const auto& all = f.table.all();
  for (const auto* d : all) g.add_vertex(d, 1.0);
  util::Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    g.observe_relation(all[rng.below(all.size())],
                       all[rng.below(all.size())]);
  }
  for (auto _ : state) {
    g.decay(0.999);  // factor ~1: edges never pruned, stable workload
  }
}
BENCHMARK(BM_RelationDecay);

// --- feedback hot path: u64-set vs unordered_set ----------------------------
// The per-execution kcov dedup + cumulative FeatureSet merge are the two
// allocation-heavy feedback paths; both now run on util::U64Set with
// capacity retained across resets. The *StdSet twins replicate the previous
// std::unordered_set shape (including the clear()-per-exec reallocation) so
// the win is visible in one bench run.

// One execution's worth of coverage: ~256 hits, roughly half duplicates —
// the shape DriverCtx::cov() produces for a multi-call program.
std::vector<uint64_t> kcov_workload() {
  std::vector<uint64_t> feats;
  util::Rng rng(7);
  for (int i = 0; i < 256; ++i) {
    feats.push_back(kernel::cov_feature(static_cast<uint16_t>(1 + i % 4),
                                        rng.below(128)));
  }
  return feats;
}

void BM_KcovRecord(benchmark::State& state) {
  const std::vector<uint64_t> feats = kcov_workload();
  kernel::Kcov k;
  k.enable();
  std::vector<uint64_t> out;
  for (auto _ : state) {
    for (uint64_t f : feats) k.hit(f);
    out.clear();
    k.collect_into(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KcovRecord);

// Pre-PR kcov shape: unordered_set dedup cleared per exec + a fresh output
// vector swapped out per exec.
void BM_KcovRecordStdSet(benchmark::State& state) {
  const std::vector<uint64_t> feats = kcov_workload();
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> buf;
  for (auto _ : state) {
    for (uint64_t f : feats) {
      if (seen.insert(f).second) buf.push_back(f);
    }
    std::vector<uint64_t> out;
    out.swap(buf);
    seen.clear();
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KcovRecordStdSet);

// Steady-state corpus growth: most features are already known, a few are
// new — the FeatureSet::add_new profile after warmup.
void BM_FeatureSetAddNew(benchmark::State& state) {
  core::FeatureSet fs;
  util::Rng rng(9);
  std::vector<uint64_t> batch(64);
  for (auto _ : state) {
    for (auto& f : batch) {
      f = kernel::cov_feature(static_cast<uint16_t>(1 + rng.below(8)),
                              rng.below(1 << 16));
    }
    benchmark::DoNotOptimize(fs.add_new(batch));
  }
}
BENCHMARK(BM_FeatureSetAddNew);

void BM_FeatureSetAddNewStdSet(benchmark::State& state) {
  std::unordered_set<uint64_t> set;
  util::Rng rng(9);
  std::vector<uint64_t> batch(64);
  std::vector<uint64_t> fresh;
  for (auto _ : state) {
    for (auto& f : batch) {
      f = kernel::cov_feature(static_cast<uint16_t>(1 + rng.below(8)),
                              rng.below(1 << 16));
    }
    fresh.clear();
    for (uint64_t f : batch) {
      if (set.insert(f).second) fresh.push_back(f);
    }
    benchmark::DoNotOptimize(fresh.data());
  }
}
BENCHMARK(BM_FeatureSetAddNewStdSet);

// Energy-weighted corpus selection at the size A1's corpus reaches over a
// 90k-exec campaign: 1,000 distinct one-call seeds with varied new_features.
// Each pick scans the cached energies once and recomputes only the picked
// seed's.
void BM_CorpusPick(benchmark::State& state) {
  constexpr int kSeeds = 1000;
  dsl::CallTable table;
  core::Corpus corpus;
  util::Rng rng(10);
  for (int i = 0; i < kSeeds; ++i) {
    dsl::CallDesc d;
    d.name = "pick" + std::to_string(i);
    core::Seed seed;
    seed.prog.calls.emplace_back().desc = table.add(std::move(d));
    seed.new_features = rng.below(256);
    corpus.add(std::move(seed));
  }
  for (auto _ : state) benchmark::DoNotOptimize(&corpus.pick(rng));
}
BENCHMARK(BM_CorpusPick);

// --- observability primitives -----------------------------------------------

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench.hist");
  uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramRecord);

// The detached-engine hot path: a ScopedTimer over a null histogram must
// not touch the clock.
void BM_ObsScopedTimerDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedTimer t(nullptr);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_ObsScopedTimerDisabled);

void BM_ObsTraceEmit(benchmark::State& state) {
  obs::TraceSink sink(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    obs::TraceEvent ev{obs::EventKind::kNewCoverage, "A2", ++i, {}};
    ev.with("features", 3);
    sink.emit(std::move(ev));
  }
  benchmark::DoNotOptimize(sink.size());
}
BENCHMARK(BM_ObsTraceEmit);

// --- engine-step overhead probe + BENCH_micro.json ---------------------------

double steps_per_sec(uint64_t seed, obs::Observability* obs,
                     bool exec_events, uint64_t warmup, uint64_t measure) {
  auto dev = device::make_device("A2", seed);
  core::EngineConfig cfg;
  cfg.seed = seed;
  core::Engine eng(*dev, cfg);
  if (obs != nullptr) {
    obs->trace.set_record_execs(exec_events);
    eng.attach_observability(obs);
  }
  eng.setup();
  eng.run(warmup);
  const WallTimer t;
  eng.run(measure);
  return static_cast<double>(measure) / t.seconds();
}

// Snapshot micro-costs for BENCH_micro.json: the same capture / restore /
// reboot-and-replay loop the google-benchmark triple times, measured once
// so the checker can hold the restore-vs-reestablish ratio.
struct SnapProbe {
  double capture_us = 0;
  double restore_us = 0;
  double reestablish_us = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t snapshot_sections = 0;
};

SnapProbe run_snapshot_probe(uint64_t seed) {
  auto& f = fixture();
  core::Broker broker(*f.dev, f.spec);
  util::Rng rng(seed + 101);
  core::Generator gen(f.table, f.rel, f.corpus, rng, {});
  // The full establishment history since boot: what replay-based recovery
  // re-executes to land on the same state the snapshot stores.
  std::vector<dsl::Program> est;
  for (int i = 0; i < 50; ++i) {
    dsl::Program p = gen.generate_fresh();
    broker.execute(p);
    est.push_back(std::move(p));
  }
  constexpr int kIters = 400;
  SnapProbe out;
  {
    const WallTimer t;
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(
          device::capture_snapshot(*f.dev, broker.native_task()));
    }
    out.capture_us = t.seconds() * 1e6 / kIters;
  }
  const device::StateSnapshot snap =
      device::capture_snapshot(*f.dev, broker.native_task());
  out.snapshot_bytes = snap.total_bytes();
  out.snapshot_sections = snap.sections.size();
  {
    const WallTimer t;
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(
          device::restore_snapshot(*f.dev, broker.native_task(), snap));
    }
    out.restore_us = t.seconds() * 1e6 / kIters;
  }
  {
    const WallTimer t;
    for (int i = 0; i < kIters; ++i) {
      f.dev->reboot();
      for (const dsl::Program& p : est) broker.execute(p);
    }
    out.reestablish_us = t.seconds() * 1e6 / kIters;
  }
  return out;
}

void run_obs_overhead_probe() {
  const WallTimer wall;
  const uint64_t seed = seed_from_env();
  constexpr uint64_t kWarmup = 2000;
  constexpr uint64_t kMeasure = 20000;
  constexpr uint64_t kStep = 5000;

  // Deterministic sampled trajectories for both configurations — identical
  // series content is itself part of the contract (instrumentation must not
  // perturb the campaign).
  obs::Observability obs;
  obs.trace.set_record_execs(false);
  std::vector<BenchSeries> exported;
  {
    auto dev = device::make_device("A2", seed);
    core::EngineConfig cfg;
    cfg.seed = seed;
    core::Engine eng(*dev, cfg);
    BenchSeries series{"A2", "detached", 0,
                       run_sampled_points(eng, kMeasure, kStep), {}};
    capture_analytics(series, eng);
    exported.push_back(std::move(series));
  }
  {
    auto dev = device::make_device("A2", seed);
    core::EngineConfig cfg;
    cfg.seed = seed;
    core::Engine eng(*dev, cfg);
    eng.attach_observability(&obs);
    BenchSeries series{"A2", "attached", 0,
                       run_sampled_points(eng, kMeasure, kStep), {}};
    capture_analytics(series, eng);
    exported.push_back(std::move(series));
  }

  const double detached =
      steps_per_sec(seed, nullptr, false, kWarmup, kMeasure);
  obs::Observability probe;
  const double attached =
      steps_per_sec(seed, &probe, false, kWarmup, kMeasure);
  const double traced = steps_per_sec(seed, &probe, true, kWarmup, kMeasure);
  // Full provenance: span tracing + crash flight recorder, the
  // `--trace-out --crash-dir` campaign configuration.
  obs::Observability prov;
  prov.spans.set_enabled(true);
  prov.flight.enable(16);
  const double provenance =
      steps_per_sec(seed, &prov, false, kWarmup, kMeasure);
  const double attached_pct = 100.0 * (detached / attached - 1.0);
  const double traced_pct = 100.0 * (detached / traced - 1.0);
  const double provenance_pct = 100.0 * (detached / provenance - 1.0);

  std::printf("=== obs overhead probe (device A2, %llu engine steps) ===\n",
              static_cast<unsigned long long>(kMeasure));
  std::printf("  detached:        %12.0f execs/sec\n", detached);
  std::printf("  attached:        %12.0f execs/sec  (%+.2f%%)\n", attached,
              attached_pct);
  std::printf("  attached+trace:  %12.0f execs/sec  (%+.2f%%)\n", traced,
              traced_pct);
  std::printf("  spans+flight:    %12.0f execs/sec  (%+.2f%%)\n\n", provenance,
              provenance_pct);

  const SnapProbe sp = run_snapshot_probe(seed);
  std::printf("=== snapshot micro probe (device A1, warmed broker) ===\n");
  std::printf("  capture:      %10.2f us  (%llu bytes, %llu sections)\n",
              sp.capture_us, static_cast<unsigned long long>(sp.snapshot_bytes),
              static_cast<unsigned long long>(sp.snapshot_sections));
  std::printf("  restore:      %10.2f us\n", sp.restore_us);
  std::printf("  reestablish:  %10.2f us  (reboot + replay)\n",
              sp.reestablish_us);
  std::printf("  restore speedup over reestablish: %.1fx\n\n",
              sp.restore_us > 0 ? sp.reestablish_us / sp.restore_us : 0.0);

  write_bench_json(
      "micro", seed, 1, exported, &obs, wall.seconds(),
      [&](obs::JsonWriter& w) {
        w.key("overhead").begin_object();
        w.field("device", "A2");
        w.field("measure_execs", kMeasure);
        // Throughputs and derived percentages are wall-dependent, so they
        // live under a "timing" key (stripped by the determinism checker).
        w.key("timing").begin_object();
        w.field("detached_execs_per_sec", detached);
        w.field("attached_execs_per_sec", attached);
        w.field("attached_trace_execs_per_sec", traced);
        w.field("provenance_execs_per_sec", provenance);
        w.field("attached_overhead_percent", attached_pct);
        w.field("attached_trace_overhead_percent", traced_pct);
        w.field("provenance_overhead_percent", provenance_pct);
        w.end_object();
        w.end_object();
        w.key("snapshot").begin_object();
        w.field("device", "A1");
        w.field("snapshot_bytes", sp.snapshot_bytes);
        w.field("snapshot_sections", sp.snapshot_sections);
        // Micro-costs are wall-dependent; the checker only holds the
        // restore-vs-reestablish ratio, not absolute numbers.
        w.key("timing").begin_object();
        w.field("capture_us", sp.capture_us);
        w.field("restore_us", sp.restore_us);
        w.field("reestablish_us", sp.reestablish_us);
        w.field("restore_speedup",
                sp.restore_us > 0 ? sp.reestablish_us / sp.restore_us : 0.0);
        w.end_object();
        w.end_object();
      });
}

}  // namespace

int main(int argc, char** argv) {
  run_obs_overhead_probe();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
