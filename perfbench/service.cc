// The service_faults workload: a CampaignService with one worker drains a
// batch of multi-device jobs, all admitted at t=0. The timed phase is
// CampaignService::run_until_idle; set-up is construction + boot() +
// submit() of the whole batch into a fresh root.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/fuzz/checkpoint.h"
#include "core/fuzz/daemon.h"
#include "core/fuzz/engine.h"
#include "core/fuzz/fleet.h"
#include "core/service/job.h"
#include "core/service/service.h"
#include "device/catalog.h"
#include "obs/json_parse.h"
#include "obs/obs.h"
#include "obs/stats_reporter.h"
#include "perfbench.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using df::core::CampaignCheckpoint;
using df::core::CampaignService;
using df::core::Daemon;
using df::core::JobSpec;

constexpr size_t kDevicesPerJob = 2;
constexpr double kFaultRate = 0.02;  // odd jobs only

// The batch: job j runs catalog devices 2j and 2j+1 (mod 7), so every seed
// fuzzes the same device mix. The seed draws each job's campaign seed and
// priority (0..3); odd jobs run with substrate faults.
std::vector<JobSpec> make_jobs(const ServiceWorkload& w, uint64_t seed) {
  std::vector<std::string> ids;
  for (const auto& spec : df::device::device_table()) ids.push_back(spec.id);
  df::util::Rng rng(seed);
  std::vector<JobSpec> jobs;
  for (size_t j = 0; j < w.jobs; ++j) {
    JobSpec s;
    s.name = "job" + std::to_string(j);
    for (size_t k = 0; k < kDevicesPerJob; ++k) {
      s.devices.push_back(ids[(j * kDevicesPerJob + k) % ids.size()]);
    }
    s.seed = rng.next();
    s.priority = rng.below(4);
    s.budget = w.budget;
    s.fault_rate = j % 2 == 1 ? kFaultRate : 0.0;
    jobs.push_back(std::move(s));
  }
  return jobs;
}

uint64_t batch_executions(const std::vector<JobSpec>& jobs) {
  uint64_t n = 0;
  for (const auto& s : jobs) n += s.budget * s.devices.size();
  return n;
}

df::core::ServiceConfig service_config(const std::string& root) {
  df::core::ServiceConfig cfg;
  cfg.root_dir = root;
  cfg.workers = 1;
  return cfg;
}

// A booted service with the whole batch submitted. Returns the job ids.
std::unique_ptr<CampaignService> admit(const std::string& root,
                                       const std::vector<JobSpec>& jobs,
                                       std::vector<uint64_t>* ids) {
  auto svc = std::make_unique<CampaignService>(service_config(root));
  std::string error;
  if (!svc->boot(&error)) {
    std::fprintf(stderr, "perfbench: boot failed: %s\n", error.c_str());
  }
  for (const auto& spec : jobs) {
    const uint64_t id = svc->submit(spec, &error);
    if (id == 0) std::fprintf(stderr, "perfbench: submit failed: %s\n", error.c_str());
    if (ids != nullptr) ids->push_back(id);
  }
  return svc;
}

double field(const std::string& result, const char* key) {
  const auto v = df::obs::json_parse(result, nullptr);
  if (!v.has_value() || !v->is_object()) return 0;
  const df::obs::JsonValue* f = v->find(key);
  return f == nullptr ? 0 : f->as_double();
}

struct Batch {
  double rate = 0;
  std::vector<std::string> results;  // per job, in submission order
  std::vector<double> quantum_ms;    // per run_one_quantum call
  // Peak RSS of the process right after this batch.
  double peak_rss_mb = 0;
};


// One batch drained quantum by quantum (exactly run_until_idle's loop,
// with a clock read around each quantum). Each job must finish and match
// `ref` (when given) byte for byte.
Batch run_batch(const std::string& root, const std::vector<JobSpec>& jobs,
                const std::vector<std::string>* ref, Outcome& out) {
  std::vector<uint64_t> ids;
  auto svc = admit(root, jobs, &ids);
  Batch b;
  const uint64_t t0 = now_ns();
  for (;;) {
    const uint64_t q0 = now_ns();
    if (!svc->run_one_quantum()) break;
    b.quantum_ms.push_back(static_cast<double>(now_ns() - q0) / 1e6);
  }
  b.rate = static_cast<double>(batch_executions(jobs)) / seconds_since(t0);
  for (size_t j = 0; j < ids.size(); ++j) {
    const auto rec = svc->job(ids[j]);
    const bool done =
        rec.has_value() && rec->state == df::core::JobState::kDone;
    b.results.push_back(done ? rec->result : "");
    std::string why = "job " + std::to_string(j) + " did not finish";
    if (done && ref != nullptr && (*ref)[j] != rec->result) {
      why = "job " + std::to_string(j) + " result differs from batch 1";
    } else if (done) {
      why.clear();
    }
    out.operation(why.empty(), why);
  }
  svc.reset();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  b.peak_rss_mb = peak_rss_mb();
  std::fprintf(stderr, "perfbench: batch of %zu jobs: %.0f execs/s, %zu quanta\n",
               jobs.size(), b.rate, b.quantum_ms.size());
  return b;
}

// Flushes the file system of `dir`, so that a set-up burst does not queue
// behind the journal commit of the previous batch's checkpoint churn.
void sync_fs(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

// Batches run back to back until the next one would overrun `seconds` (at
// least `min_batches`), each preceded by a burst of set-up samples when
// `setup` is given.
std::vector<Batch> timed_batches(const Options& opt,
                                 const std::vector<JobSpec>& jobs,
                                 double seconds, size_t min_batches,
                                 Outcome& out, SetupSamples* setup) {
  std::vector<Batch> batches;
  const uint64_t start = now_ns();
  double last_s = 0;
  while (batches.size() < min_batches ||
         seconds_since(start) + last_s <= seconds) {
    const uint64_t t0 = now_ns();
    if (setup != nullptr) {
      sync_fs(opt.work_dir);
      setup->take(kSetupBurst);
      std::error_code ec;
      std::filesystem::remove_all(opt.work_dir + "/setup", ec);
    }
    const std::string root =
        opt.work_dir + "/batch-" + std::to_string(batches.size());
    batches.push_back(run_batch(root, jobs,
                                batches.empty() ? nullptr : &batches[0].results,
                                out));
    last_s = seconds_since(t0);
  }
  return batches;
}

// Execs/s with each quantum's time taken as its median over the batches:
// every batch runs the same quanta in the same order.
double median_rate(const std::vector<JobSpec>& jobs,
                   const std::vector<Batch>& batches) {
  std::vector<std::vector<double>> quanta;
  for (const auto& b : batches) quanta.push_back(b.quantum_ms);
  return static_cast<double>(batch_executions(jobs)) /
         (median_total_s(quanta) / 1e3);
}

// The pieces of one replayed quantum (see trace_service).
struct QuantumSplit {
  double setup_s = 0, read_s = 0, resume_s = 0, run_s = 0;
  double serialize_s = 0, write_s = 0;
  double checkpoint_mb = 0;
  bool resumed = false;
  bool finished = false;
  bool ok = true;
  std::string error;
};

}  // namespace

void run_service(const Options& opt, const ServiceWorkload& w, Outcome& out) {
  const std::vector<JobSpec> jobs = make_jobs(w, opt.seed);
  // Each repeat admits the batch into a fresh root; the roots of a burst
  // are removed after it, outside the timed part.
  SetupSamples setup([&](size_t i) {
    const std::string root = opt.work_dir + "/setup/" + std::to_string(i);
    const uint64_t t0 = now_ns();
    auto svc = admit(root, jobs, nullptr);
    const double dt = seconds_since(t0);
    svc.reset();
    return dt;
  });
  const auto batches =
      timed_batches(opt, jobs, opt.seconds, opt.tiny ? 2 : 3, out, &setup);
  double coverage = 0, bugs = 0;
  for (const auto& r : batches.front().results) {
    coverage += field(r, "coverage");
    bugs += field(r, "bugs");
  }
  out.add("execs_per_sec", median_rate(jobs, batches), "1/s");
  out.add("setup_s", setup.median_s(), "s");
  out.add("peak_rss_mb", batches.front().peak_rss_mb, "MB");
  out.add("kernel_coverage", coverage, "count");
  out.add("unique_bugs", bugs, "count");
  std::fprintf(stderr,
               "perfbench: execs_per_sec from %zu batches x %zu quanta; "
               "setup_s median of %zu warm repeats (cold %.6f s discarded)\n",
               batches.size(), batches.front().quantum_ms.size(), setup.count(),
               setup.cold_s());
}

void trace_service(const Options& opt, const ServiceWorkload& w,
                   Outcome& out) {
  SpanLog spans;
  const std::vector<JobSpec> jobs = make_jobs(w, opt.seed);

  // Untraced baseline batches: execs/s, per-quantum latency (pooled over
  // the batches), job results.
  const auto batches =
      timed_batches(opt, jobs, opt.seconds * 0.3, 2, out, nullptr);
  const double base_rate = median_rate(jobs, batches);
  std::vector<double> quantum_ms;
  for (const auto& b : batches) {
    quantum_ms.insert(quantum_ms.end(), b.quantum_ms.begin(), b.quantum_ms.end());
  }
  const Batch& base = batches.front();
  uint64_t mismatches = 0;

  // Oracle: every job's result document equals the uninterrupted reference.
  for (size_t j = 0; j < jobs.size(); ++j) {
    std::string ref;
    {
      const ScopedSpan s(spans, "CampaignService::run_reference");
      ref = CampaignService::run_reference(
          jobs[j], 1, opt.work_dir + "/ref-" + std::to_string(j));
    }
    const bool ok = ref == base.results[j];
    mismatches += ok ? 0 : 1;
    out.operation(ok, "job " + std::to_string(j) +
                          " result differs from run_reference");
  }

  // Replay: every job's quanta run step by step the way the service's
  // execute_quantum runs them — fresh telemetry + daemon, read the last
  // checkpoint, resume, run one quantum, serialize, write — with a span
  // around each library call.
  std::vector<QuantumSplit> quanta;
  PhaseTotals ph;
  PhaseTotals probe_setup;
  df::core::FleetUtilization fleet;
  uint64_t forks = 0, recoveries = 0;
  ProbeTimes probes;
  size_t corpus_final = 0;
  double wall_s = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const JobSpec& spec = jobs[j];
    const std::string dir = opt.work_dir + "/replay-" + std::to_string(j);
    const std::string path = dir + "/checkpoint.json";
    for (uint64_t progress = 0; progress < spec.budget;) {
      QuantumSplit q;
      ScopedSpan quantum(spans, "quantum");
      df::obs::Observability obs;
      df::obs::StatsReporter rep(spec.sample_every);
      df::core::DaemonConfig cfg;
      cfg.seed = spec.seed;
      cfg.workers = 1;
      cfg.engine.fault.rate = spec.fault_rate;
      cfg.checkpoint_dir = dir;
      cfg.checkpoint_every = spec.checkpoint_every;
      std::unique_ptr<Daemon> d;
      {
        ScopedSpan s(spans, "setup");
        obs.trace.set_record_execs(false);
        d = std::make_unique<Daemon>(cfg);
        d->attach_observability(&obs);
        d->attach_reporter(&rep);
        for (const auto& id : spec.devices) d->add_device(id);
        for (const auto& id : spec.devices) d->engine(id)->setup();
        q.setup_s = s.close();
      }
      probe_setup.add(PhaseTotals::of(obs.registry.snapshot()));
      std::string text, error;
      {
        ScopedSpan s(spans, "CampaignCheckpoint::read_file");
        q.resumed = CampaignCheckpoint::read_file(path, &text, &error);
        q.read_s = s.close();
      }
      if (q.resumed) {
        ScopedSpan s(spans, "Daemon::resume");
        q.ok = d->resume(text, &error);
        q.resume_s = s.close();
      } else if (progress > 0) {
        q.ok = false;
      }
      if (!q.ok) {
        q.error = "job " + std::to_string(j) + " replay failed to resume: " +
                  error;
        quanta.push_back(q);
        break;
      }
      const uint64_t target = std::min(
          spec.budget, d->progress() + spec.checkpoint_every);
      const PhaseTotals before = PhaseTotals::of(obs.registry.snapshot());
      {
        ScopedSpan s(spans, "Daemon::run");
        d->run(target, spec.slice);
        q.run_s = s.close();
      }
      ph.add(PhaseTotals::delta(PhaseTotals::of(obs.registry.snapshot()),
                                before));
      fleet.merge(d->utilization());
      progress = d->progress();
      if (progress >= spec.budget) {
        q.finished = true;
        double coverage = 0;
        for (const auto& id : spec.devices) {
          df::core::Engine* e = d->engine(id);
          coverage += static_cast<double>(e->kernel_coverage());
          forks += e->snapshot_stats().forks;
          recoveries += e->snapshot_stats().fault_recoveries;
          corpus_final += e->corpus().size();
        }
        const bool ok =
            coverage == field(base.results[j], "coverage") &&
            static_cast<double>(d->total_executions()) ==
                field(base.results[j], "executions");
        mismatches += ok ? 0 : 1;
        out.operation(ok, "job " + std::to_string(j) +
                              " replay coverage/executions differ from the "
                              "service result");
        wall_s += quantum.close();
        if (j + 1 == jobs.size()) {
          const ScopedSpan s(spans, "probe:layers");
          probes = probe_daemon(*d, spec.devices, opt.seed, opt.tiny);
        }
      } else {
        std::string json;
        {
          ScopedSpan s(spans, "Daemon::checkpoint_json");
          json = d->checkpoint_json();
          q.serialize_s = s.close();
        }
        q.checkpoint_mb = static_cast<double>(json.size()) / 1e6;
        {
          ScopedSpan s(spans, "CampaignCheckpoint::write_file");
          q.ok = CampaignCheckpoint::write_file(path, json, &error);
          q.write_s = s.close();
        }
        wall_s += quantum.close();
        if (!q.ok) {
          q.error = "job " + std::to_string(j) + " replay write failed: " +
                    error;
          quanta.push_back(q);
          break;
        }
      }
      quanta.push_back(q);
    }
  }
  for (const auto& q : quanta) {
    if (!q.ok) {
      ++mismatches;
      out.operation(false, q.error);
    }
  }

  std::vector<double> serialize_ms, resume_ms, mb;
  double setup_s = 0, checkpoint_s = 0, run_s = 0;
  for (const auto& q : quanta) {
    setup_s += q.setup_s;
    checkpoint_s += q.read_s + q.resume_s + q.serialize_s + q.write_s;
    run_s += q.run_s;
    if (q.resumed) resume_ms.push_back(q.resume_s * 1e3);
    if (!q.finished) {
      serialize_ms.push_back(q.serialize_s * 1e3);
      mb.push_back(q.checkpoint_mb);
    }
  }
  const double checkpoint = checkpoint_s / wall_s;
  const double setup = setup_s / wall_s;
  const double traced_rate = static_cast<double>(ph.executions) / wall_s;
  const double p90 = supported_percentile(quantum_ms, 0.9);
  if (p90 < 0) {
    std::fprintf(stderr,
                 "perfbench: service.quantum_ms_p90 unsupported (%zu quanta "
                 "< 100), reported as 0\n",
                 quantum_ms.size());
  }

  out.add("trace.wall_s", wall_s, "s");
  const double claimed = add_engine_layers(out, ph, wall_s);
  // Jobs end before 10k execs and are not windowed.
  out.add("gen.candidate_ns_10k", 0, "ns");
  out.add("gen.candidate_ns_final", probes.candidate_ns, "ns");
  out.add("corpus.size_final", static_cast<double>(corpus_final), "count");
  out.add("corpus.pick_ns_10k", 0, "ns");
  out.add("corpus.pick_ns_final", probes.pick_ns, "ns");
  out.add("campaign.rate_last_over_first", 0, "ratio");
  out.add("snapshot.capture_us", probes.capture_us, "us");
  out.add("snapshot.restore_us", probes.restore_us, "us");
  out.add("snapshot.forks", static_cast<double>(forks), "count");
  out.add("snapshot.fault_recoveries", static_cast<double>(recoveries), "count");
  out.add("checkpoint.serialize_ms_p50", median(serialize_ms), "ms");
  out.add("checkpoint.resume_ms_p50", median(resume_ms), "ms");
  out.add("checkpoint.mb_p50", median(mb), "MB");
  out.add("checkpoint.samples", static_cast<double>(serialize_ms.size()), "count");
  out.add("checkpoint.share", checkpoint, "ratio");
  out.add("service.quanta", static_cast<double>(quantum_ms.size()), "count");
  out.add("service.quantum_ms_p50", median(quantum_ms), "ms");
  out.add("service.quantum_ms_p90", std::max(p90, 0.0), "ms");
  out.add("service.run_share", run_s / wall_s, "ratio");
  out.add("service.setup_share", setup, "ratio");
  out.add("service.setup_ms_per_quantum",
          quanta.empty() ? 0 : setup_s * 1e3 / static_cast<double>(quanta.size()),
          "ms");
  add_fleet_layer(out, fleet);
  out.add("probe.ms",
          probe_setup.probe_count == 0
              ? 0
              : probe_setup.probe_s * 1e3 / probe_setup.probe_count,
          "ms");
  out.add("probe.samples", static_cast<double>(probe_setup.probe_count), "count");
  out.add("other.share", 1.0 - (claimed + checkpoint + setup), "ratio");
  out.add("obs.trace_overhead", base_rate / traced_rate - 1.0, "ratio");
  out.add("oracle.mismatches", static_cast<double>(mismatches), "count");

  std::fprintf(stderr,
               "perfbench: replay %.0f execs/s over %zu quanta vs untraced "
               "%.0f; shares: engine layers %.3f checkpoint %.3f setup %.3f "
               "(Daemon::run %.3f)\n",
               traced_rate, quanta.size(), base_rate, claimed, checkpoint,
               setup, run_s / wall_s);
  if (!opt.spans_out.empty() && !spans.write_jsonl(opt.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
  }
}

}  // namespace perfbench
