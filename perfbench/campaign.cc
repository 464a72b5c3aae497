// The campaign_144h workload: one Daemon fuzzing the Table I catalog. The
// timed phase is Daemon::run over the whole budget, called in windows; set-up
// (Daemon + add_device + Engine::setup) is measured separately.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "core/fuzz/checkpoint.h"
#include "core/fuzz/daemon.h"
#include "core/fuzz/engine.h"
#include "dsl/fmt.h"
#include "obs/obs.h"
#include "perfbench.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using df::core::Daemon;
using df::core::DaemonConfig;
using df::core::Engine;

// A daemon with every device added and set up (probing included).
std::unique_ptr<Daemon> build(const CampaignWorkload& w, uint64_t seed,
                              size_t workers, df::obs::Observability* obs) {
  DaemonConfig cfg;
  cfg.seed = seed;
  cfg.workers = workers;
  auto d = std::make_unique<Daemon>(cfg);
  if (obs != nullptr) d->attach_observability(obs);
  for (const auto& id : w.devices) d->add_device(id);
  for (const auto& id : w.devices) d->engine(id)->setup();
  return d;
}

// What a campaign produced, per device: executions, coverage, the corpus
// as DSL text, bug titles with duplicate counts, and snapshot counters.
// Equal fingerprints mean bit-identical per-device results.
struct Content {
  std::map<std::string, uint64_t> devices;  // id -> fingerprint
  size_t kernel_coverage = 0;
  size_t unique_bugs = 0;

  bool operator==(const Content& o) const { return devices == o.devices; }
};

Content content_of(Daemon& d, const std::vector<std::string>& ids) {
  Content c;
  for (const auto& id : ids) {
    Engine* e = d.engine(id);
    std::string s = id + "|" + std::to_string(e->executions()) + "|" +
                    std::to_string(e->kernel_coverage()) + "|" +
                    std::to_string(e->total_coverage()) + "\n";
    for (size_t i = 0; i < e->corpus().size(); ++i) {
      s += df::dsl::format_program(e->corpus().at(i).prog) + "\n";
    }
    for (const auto& b : e->crashes().bugs()) {
      s += b.title + ":" + std::to_string(b.dup_count) + ":" +
           std::to_string(b.first_exec) + "\n";
    }
    const df::core::SnapshotStats& ss = e->snapshot_stats();
    s += std::to_string(ss.captures) + "/" + std::to_string(ss.restores) +
         "/" + std::to_string(ss.forks) + "/" +
         std::to_string(ss.fault_recoveries) + "\n";
    c.devices[id] = df::util::fnv1a(s);
  }
  c.kernel_coverage = d.total_kernel_coverage();
  std::set<std::pair<std::string, std::string>> bugs;
  for (const auto& b : d.all_bugs()) bugs.insert({b.device_id, b.bug.title});
  c.unique_bugs = bugs.size();
  return c;
}

std::string hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string describe(const Content& c) {
  uint64_t h = 0;
  for (const auto& [id, fp] : c.devices) h = h * 1099511628211ull ^ fp;
  return hex(h) + " (coverage " + std::to_string(c.kernel_coverage) +
         ", bugs " + std::to_string(c.unique_bugs) + ")";
}

// One untraced campaign, run in windows of `kUnit` executions per device
// (slice multiples, so the slice grid is the one of a single run() call).
struct TimedCampaign {
  double rate = 0;
  double wall_s = 0;
  uint64_t executions = 0;
  std::vector<double> window_s;
  Content content;
  // Peak RSS of the process right after this campaign.
  double peak_rss_mb = 0;
};

constexpr uint64_t kSlice = 256;  // Daemon::run's default round size
constexpr uint64_t kUnit = 1024;
constexpr size_t kFleetWorkers = 3;

TimedCampaign timed_campaign(const CampaignWorkload& w, uint64_t seed) {
  auto d = build(w, seed, 1, nullptr);
  TimedCampaign t;
  for (uint64_t done = 0; done < w.execs_per_device;) {
    done = std::min(done + kUnit, w.execs_per_device);
    const uint64_t t0 = now_ns();
    d->run(done, kSlice);
    t.window_s.push_back(seconds_since(t0));
    t.wall_s += t.window_s.back();
  }
  t.executions = d->total_executions();
  t.rate = static_cast<double>(t.executions) / t.wall_s;
  t.content = content_of(*d, w.devices);
  t.peak_rss_mb = peak_rss_mb();
  return t;
}

// Campaigns run back to back until the next one would overrun `seconds`
// (at least `min_runs`), each preceded by a burst of set-up samples when
// `setup` is given. Every run must reproduce the first one's content.
std::vector<TimedCampaign> timed_campaigns(const CampaignWorkload& w,
                                           uint64_t seed, double seconds,
                                           size_t min_runs, Outcome& out,
                                           SetupSamples* setup) {
  std::vector<TimedCampaign> runs;
  const uint64_t start = now_ns();
  double last_s = 0;
  while (runs.size() < min_runs ||
         seconds_since(start) + last_s <= seconds) {
    const uint64_t t0 = now_ns();
    if (setup != nullptr) setup->take(kSetupBurst);
    runs.push_back(timed_campaign(w, seed));
    last_s = seconds_since(t0);
    const TimedCampaign& r = runs.back();
    out.operation(r.content == runs.front().content,
                  "campaign " + std::to_string(runs.size()) + " content " +
                      describe(r.content) + " != " +
                      describe(runs.front().content));
    std::fprintf(stderr, "perfbench: campaign %zu: %.0f execs/s over %.3f s, %s\n",
                 runs.size(), r.rate, r.wall_s, describe(r.content).c_str());
  }
  return runs;
}

// Execs/s with each window's time taken as its median over the repeats.
double median_rate(const std::vector<TimedCampaign>& runs) {
  std::vector<std::vector<double>> windows;
  for (const auto& r : runs) windows.push_back(r.window_s);
  return static_cast<double>(runs.front().executions) / median_total_s(windows);
}

// Checkpoints `d`, writes and re-reads the document, resumes it into a
// fresh scratch daemon, and probes the layers there. Spans go to `spans`.
ProbeTimes probe_resumed_copy(Daemon& d, const CampaignWorkload& w,
                              uint64_t seed, const std::string& path,
                              const std::string& tag, bool tiny,
                              SpanLog& spans, Outcome& out) {
  const ScopedSpan all(spans, "probe:" + tag);
  std::string json;
  {
    const ScopedSpan s(spans, "Daemon::checkpoint_json");
    json = d.checkpoint_json();
  }
  std::string error;
  bool ok;
  {
    const ScopedSpan s(spans, "CampaignCheckpoint::write_file");
    ok = df::core::CampaignCheckpoint::write_file(path, json, &error);
  }
  std::string text;
  if (ok) {
    const ScopedSpan s(spans, "CampaignCheckpoint::read_file");
    ok = df::core::CampaignCheckpoint::read_file(path, &text, &error);
  }
  DaemonConfig cfg;
  cfg.seed = seed;
  cfg.workers = 1;
  Daemon scratch(cfg);
  for (const auto& id : w.devices) scratch.add_device(id);
  if (ok) {
    const ScopedSpan s(spans, "Daemon::resume");
    ok = scratch.resume(text, &error);
  }
  out.operation(ok, "probe at " + tag + ": checkpoint/resume failed: " + error);
  if (!ok) return {};
  const ScopedSpan s(spans, "probe:layers");
  return probe_daemon(scratch, w.devices, seed, tiny);
}

}  // namespace

void run_campaign(const Options& opt, const CampaignWorkload& w, Outcome& out) {
  // Set-up repeat i builds the fleet from seed + i: probing and device
  // construction depend on the seed, and the median over many seeds is a
  // steadier figure than any single seed's.
  SetupSamples setup([&](size_t i) {
    const uint64_t t0 = now_ns();
    auto d = build(w, opt.seed + i, 1, nullptr);
    const double dt = seconds_since(t0);
    d.reset();
    return dt;
  });
  const auto runs =
      timed_campaigns(w, opt.seed, opt.seconds, opt.tiny ? 2 : 3, out, &setup);
  out.add("execs_per_sec", median_rate(runs), "1/s");
  out.add("setup_s", setup.median_s(), "s");
  out.add("peak_rss_mb", runs.front().peak_rss_mb, "MB");
  out.add("kernel_coverage",
          static_cast<double>(runs.front().content.kernel_coverage), "count");
  out.add("unique_bugs", static_cast<double>(runs.front().content.unique_bugs),
          "count");
  std::fprintf(stderr,
               "perfbench: execs_per_sec from %zu campaigns x %zu windows; "
               "setup_s median of %zu warm repeats (cold %.6f s discarded)\n",
               runs.size(), runs.front().window_s.size(), setup.count(),
               setup.cold_s());
}

void trace_campaign(const Options& opt, const CampaignWorkload& w,
                    Outcome& out) {
  SpanLog spans;

  // Untraced baseline: the reference content and execs/s.
  const auto base =
      timed_campaigns(w, opt.seed, opt.seconds * 0.3, 1, out, nullptr);
  const double base_rate = median_rate(base);
  const Content& ref = base.front().content;

  // Traced campaign: the obs bundle attached, Daemon::run in windows.
  df::obs::Observability obs;
  std::unique_ptr<Daemon> d;
  {
    const ScopedSpan s(spans, "setup");
    d = build(w, opt.seed, 1, &obs);
  }
  const PhaseTotals setup = PhaseTotals::of(obs.registry.snapshot());
  std::vector<double> window_rates;
  double wall_s = 0;
  {
    const ScopedSpan campaign(spans, "campaign");
    for (uint64_t done = 0; done < w.execs_per_device;) {
      const uint64_t target = std::min(done + w.window, w.execs_per_device);
      const uint64_t execs_before = d->total_executions();
      ScopedSpan s(spans, "Daemon::run");
      d->run(target, kSlice);
      const double dt = s.close();
      wall_s += dt;
      window_rates.push_back(
          static_cast<double>(d->total_executions() - execs_before) / dt);
      done = target;
    }
  }
  const PhaseTotals ph =
      PhaseTotals::delta(PhaseTotals::of(obs.registry.snapshot()), setup);
  const double traced_rate = static_cast<double>(d->total_executions()) / wall_s;
  const Content traced = content_of(*d, w.devices);
  uint64_t mismatches = 0;
  const bool traced_ok = traced == ref;
  mismatches += traced_ok ? 0 : 1;
  out.operation(traced_ok, "traced content " + describe(traced) +
                               " != untraced " + describe(ref));

  // Fleet pass and oracle: the same campaign on kFleetWorkers workers, in
  // one Daemon::run call, reproduces the per-device content of the
  // windowed one-worker runs; its utilization gives the fleet metrics.
  df::core::FleetUtilization fleet;
  {
    df::obs::Observability obs_fleet;
    auto f = build(w, opt.seed, kFleetWorkers, &obs_fleet);
    {
      const ScopedSpan s(spans, "Daemon::run[workers=3]");
      f->run(w.execs_per_device, kSlice);
    }
    fleet = f->utilization();
    const Content c = content_of(*f, w.devices);
    const bool ok = c == ref;
    mismatches += ok ? 0 : 1;
    out.operation(ok, "workers=" + std::to_string(kFleetWorkers) +
                          " content " + describe(c) + " != workers=1 " +
                          describe(ref));
  }

  // Layer probes on resumed copies: an early checkpoint from a separate
  // campaign stopped at one window, and the traced campaign's final state.
  ProbeTimes early;
  {
    auto e = build(w, opt.seed, 1, nullptr);
    e->run(std::min(w.window, w.execs_per_device), kSlice);
    early = probe_resumed_copy(*e, w, opt.seed, opt.work_dir + "/early.json",
                               "10k", opt.tiny, spans, out);
  }
  size_t corpus_final = 0;
  df::core::SnapshotStats snap;
  for (const auto& id : w.devices) {
    Engine* e = d->engine(id);
    corpus_final += e->corpus().size();
    snap.forks += e->snapshot_stats().forks;
    snap.fault_recoveries += e->snapshot_stats().fault_recoveries;
  }
  const ProbeTimes final_probe =
      probe_resumed_copy(*d, w, opt.seed, opt.work_dir + "/final.json",
                         "final", opt.tiny, spans, out);

  out.add("trace.wall_s", wall_s, "s");
  const double claimed = add_engine_layers(out, ph, wall_s);
  out.add("gen.candidate_ns_10k", early.candidate_ns, "ns");
  out.add("gen.candidate_ns_final", final_probe.candidate_ns, "ns");
  out.add("corpus.size_final", static_cast<double>(corpus_final), "count");
  out.add("corpus.pick_ns_10k", early.pick_ns, "ns");
  out.add("corpus.pick_ns_final", final_probe.pick_ns, "ns");
  out.add("campaign.rate_last_over_first",
          window_rates.back() / window_rates.front(), "ratio");
  out.add("snapshot.capture_us", final_probe.capture_us, "us");
  out.add("snapshot.restore_us", final_probe.restore_us, "us");
  out.add("snapshot.forks", static_cast<double>(snap.forks), "count");
  out.add("snapshot.fault_recoveries", static_cast<double>(snap.fault_recoveries),
          "count");
  // The campaign itself never checkpoints or runs service quanta.
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (name.starts_with("checkpoint.") || name.starts_with("service.")) {
      out.add(name, 0, unit);
    }
  }
  add_fleet_layer(out, fleet);
  out.add("probe.ms",
          setup.probe_count == 0 ? 0 : setup.probe_s * 1e3 / setup.probe_count,
          "ms");
  out.add("probe.samples", static_cast<double>(setup.probe_count), "count");
  out.add("other.share", 1.0 - claimed, "ratio");
  out.add("obs.trace_overhead", base_rate / traced_rate - 1.0, "ratio");
  out.add("oracle.mismatches", static_cast<double>(mismatches), "count");

  std::fprintf(stderr,
               "perfbench: traced %.0f execs/s vs untraced %.0f (%zu runs); "
               "engine layers claim %.3f of the traced wall\n",
               traced_rate, base_rate, base.size(), claimed);
  if (!opt.spans_out.empty() && !spans.write_jsonl(opt.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
  }
}

}  // namespace perfbench
