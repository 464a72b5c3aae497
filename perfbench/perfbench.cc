// perfbench: the repo benchmark binary. run.py builds it and runs
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--work-dir <dir>] [--spans-out <file>]
//
// Human-readable progress goes to stderr; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include "perfbench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "core/fuzz/daemon.h"
#include "core/fuzz/engine.h"
#include "core/fuzz/fleet.h"
#include "core/gen/generator.h"
#include "device/catalog.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double supported_percentile(std::vector<double> v, double q) {
  const size_t n = v.size();
  if (n == 0) return -1;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return -1;
  return v[rank - 1];
}

// --- spans -------------------------------------------------------------------

size_t SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanLog::end(size_t id) {
  Span& s = spans_[id];
  s.end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
      << s.name << "\",\"start_ns\":" << (s.start_ns - t0)
      << ",\"end_ns\":" << (s.end_ns == 0 ? 0 : s.end_ns - t0) << "}\n";
  }
  return static_cast<bool>(f);
}

// --- shared measurement helpers ----------------------------------------------

PhaseTotals PhaseTotals::of(const df::obs::Snapshot& snap) {
  PhaseTotals t;
  for (const auto& h : snap.histograms) {
    const double s = static_cast<double>(h.sum_ns) / 1e9;
    if (h.name == "phase.generate") t.generate_s += s;
    if (h.name == "phase.analyze") t.analyze_s += s;
    if (h.name == "phase.minimize") t.minimize_s += s;
    if (h.name == "phase.execute") {
      t.execute_s += s;
      t.execute_count += h.count;
    }
    if (h.name == "phase.probe") {
      t.probe_s += s;
      t.probe_count += h.count;
    }
  }
  const std::map<std::string, uint64_t PhaseTotals::*> counters = {
      {"engine.executions", &PhaseTotals::executions},
      {"engine.corpus_adds", &PhaseTotals::corpus_adds},
      {"minimize.oracle_execs", &PhaseTotals::oracle_execs},
      {"analysis.rejected", &PhaseTotals::lint_rejected},
      {"analysis.repaired", &PhaseTotals::lint_repaired},
      {"broker.programs", &PhaseTotals::programs},
      {"broker.calls", &PhaseTotals::calls},
      {"campaign.lost_execs", &PhaseTotals::lost},
      {"campaign.retries", &PhaseTotals::retries},
  };
  for (const auto& c : snap.counters) {
    const auto it = counters.find(c.name);
    if (it != counters.end()) t.*(it->second) += c.value;
  }
  return t;
}

PhaseTotals PhaseTotals::delta(const PhaseTotals& after,
                               const PhaseTotals& before) {
  PhaseTotals d = after;
  d.generate_s -= before.generate_s;
  d.analyze_s -= before.analyze_s;
  d.minimize_s -= before.minimize_s;
  d.execute_s -= before.execute_s;
  d.probe_s -= before.probe_s;
  d.execute_count -= before.execute_count;
  d.probe_count -= before.probe_count;
  d.executions -= before.executions;
  d.corpus_adds -= before.corpus_adds;
  d.oracle_execs -= before.oracle_execs;
  d.lint_rejected -= before.lint_rejected;
  d.lint_repaired -= before.lint_repaired;
  d.programs -= before.programs;
  d.calls -= before.calls;
  d.lost -= before.lost;
  d.retries -= before.retries;
  return d;
}

void PhaseTotals::add(const PhaseTotals& o) {
  generate_s += o.generate_s;
  analyze_s += o.analyze_s;
  minimize_s += o.minimize_s;
  execute_s += o.execute_s;
  probe_s += o.probe_s;
  execute_count += o.execute_count;
  probe_count += o.probe_count;
  executions += o.executions;
  corpus_adds += o.corpus_adds;
  oracle_execs += o.oracle_execs;
  lint_rejected += o.lint_rejected;
  lint_repaired += o.lint_repaired;
  programs += o.programs;
  calls += o.calls;
  lost += o.lost;
  retries += o.retries;
}

double PhaseTotals::oracle_execute_s() const {
  if (execute_count == 0) return 0;
  return execute_s * static_cast<double>(oracle_execs) /
         static_cast<double>(execute_count);
}

ProbeTimes probe_daemon(df::core::Daemon& d,
                        const std::vector<std::string>& devices,
                        uint64_t seed, bool tiny) {
  const size_t sweeps = tiny ? 3 : 9;
  const size_t picks = tiny ? 64 : 512;
  const size_t candidates = tiny ? 16 : 128;
  std::vector<df::core::Engine*> engines;
  for (const auto& id : devices) engines.push_back(d.engine(id));

  ProbeTimes t;
  std::vector<double> pick_ns, cand_ns, capture_us, restore_us;
  for (size_t s = 0; s < sweeps; ++s) {
    // Corpus::pick on the scratch engine's own corpus (the copy is never
    // run again, so its hit counters may move).
    uint64_t ns = 0, n = 0;
    for (df::core::Engine* e : engines) {
      if (e->corpus().empty()) continue;
      df::util::Rng rng(seed + s);
      const uint64_t t0 = now_ns();
      for (size_t i = 0; i < picks; ++i) e->corpus_mutable().pick(rng);
      ns += now_ns() - t0;
      n += picks;
    }
    if (n > 0) pick_ns.push_back(static_cast<double>(ns) / n);

    // Generator::next_candidate over copies of the corpus and relation
    // graph, gated and biased exactly as the engine configures its own.
    ns = 0;
    n = 0;
    for (df::core::Engine* e : engines) {
      df::core::RelationGraph rel = e->relations();
      df::core::Corpus corpus = e->corpus();
      df::util::Rng rng(seed + s);
      df::core::Generator gen(e->calls(), rel, corpus, rng, e->config().gen);
      if (e->config().lint_programs) gen.set_lint(&e->lint(), nullptr, nullptr);
      if (e->config().gen.dataflow_bias && !e->guard_index().empty()) {
        gen.set_guard_index(&e->guard_index());
      }
      const uint64_t t0 = now_ns();
      for (size_t i = 0; i < candidates; ++i) gen.next_candidate();
      ns += now_ns() - t0;
      n += candidates;
    }
    if (n > 0) cand_ns.push_back(static_cast<double>(ns) / n);

    // Full (parentless) snapshot capture, then a restore of that capture.
    uint64_t cap_ns = 0, res_ns = 0;
    for (df::core::Engine* e : engines) {
      uint64_t t0 = now_ns();
      const df::device::StateSnapshot snap = e->broker().capture_snapshot();
      cap_ns += now_ns() - t0;
      t0 = now_ns();
      e->broker().restore_snapshot(snap);
      res_ns += now_ns() - t0;
    }
    if (!engines.empty()) {
      capture_us.push_back(static_cast<double>(cap_ns) / 1e3 /
                           static_cast<double>(engines.size()));
      restore_us.push_back(static_cast<double>(res_ns) / 1e3 /
                           static_cast<double>(engines.size()));
    }
  }
  t.pick_ns = median(pick_ns);
  t.candidate_ns = median(cand_ns);
  t.capture_us = median(capture_us);
  t.restore_us = median(restore_us);
  return t;
}

void SetupSamples::take(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double s = once_(next_++);
    if (next_ == 1) {
      cold_s_ = s;
      ++n;  // the cold repeat does not count towards the burst
    } else {
      warm_.push_back(s);
    }
  }
}

double median_total_s(const std::vector<std::vector<double>>& unit_s) {
  if (unit_s.empty()) return 0;
  double total = 0;
  for (size_t k = 0; k < unit_s.front().size(); ++k) {
    std::vector<double> v;
    for (const auto& r : unit_s) {
      if (k < r.size()) v.push_back(r[k]);
    }
    total += median(v);
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double add_engine_layers(Outcome& out, const PhaseTotals& ph, double base_s) {
  const double execs = static_cast<double>(std::max<uint64_t>(ph.executions, 1));
  const double feedback_s = ph.analyze_s - ph.minimize_s;
  const double minimize_s = ph.minimize_s - ph.oracle_execute_s();
  out.add("gen.ns_per_exec", ph.generate_s * 1e9 / execs, "ns");
  out.add("gen.share", ph.generate_s / base_s, "ratio");
  out.add("analysis.gate_rejects_per_kexec",
          static_cast<double>(ph.lint_rejected + ph.lint_repaired) * 1e3 / execs,
          "1/kexec");
  out.add("exec.ns_per_exec", ph.execute_s * 1e9 / execs, "ns");
  out.add("exec.share", ph.execute_s / base_s, "ratio");
  out.add("exec.calls_per_program",
          ph.programs == 0 ? 0
                           : static_cast<double>(ph.calls) /
                                 static_cast<double>(ph.programs),
          "count");
  out.add("feedback.ns_per_exec", feedback_s * 1e9 / execs, "ns");
  out.add("feedback.share", feedback_s / base_s, "ratio");
  out.add("minimize.share", minimize_s / base_s, "ratio");
  out.add("minimize.oracle_execs_per_add",
          ph.corpus_adds == 0 ? 0
                              : static_cast<double>(ph.oracle_execs) /
                                    static_cast<double>(ph.corpus_adds),
          "count");
  out.add("fault.lost_exec_ratio", static_cast<double>(ph.lost) / execs, "ratio");
  out.add("fault.retries_per_kexec",
          static_cast<double>(ph.retries) * 1e3 / execs, "1/kexec");
  return (ph.generate_s + ph.execute_s + feedback_s + minimize_s) / base_s;
}

void add_fleet_layer(Outcome& out, const df::core::FleetUtilization& util) {
  uint64_t busy = 0, idle = 0, barrier = 0, max_busy = 0;
  for (const auto& w : util.workers) {
    busy += w.busy_ns;
    idle += w.idle_ns;
    barrier += w.barrier_ns;
    max_busy = std::max(max_busy, w.busy_ns);
  }
  const double total = static_cast<double>(busy + idle + barrier);
  out.add("fleet.busy_s", static_cast<double>(busy) / 1e9, "s");
  out.add("fleet.idle_share", total > 0 ? idle / total : 0, "ratio");
  out.add("fleet.barrier_share", total > 0 ? barrier / total : 0, "ratio");
  out.add("fleet.busy_imbalance",
          max_busy == 0 ? 0
                        : static_cast<double>(util.busy_imbalance_ns()) /
                              static_cast<double>(max_busy),
          "ratio");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace.wall_s", "s"},
      {"gen.ns_per_exec", "ns"},
      {"gen.share", "ratio"},
      {"gen.candidate_ns_10k", "ns"},
      {"gen.candidate_ns_final", "ns"},
      {"analysis.gate_rejects_per_kexec", "1/kexec"},
      {"exec.ns_per_exec", "ns"},
      {"exec.share", "ratio"},
      {"exec.calls_per_program", "count"},
      {"feedback.ns_per_exec", "ns"},
      {"feedback.share", "ratio"},
      {"corpus.size_final", "count"},
      {"corpus.pick_ns_10k", "ns"},
      {"corpus.pick_ns_final", "ns"},
      {"campaign.rate_last_over_first", "ratio"},
      {"minimize.share", "ratio"},
      {"minimize.oracle_execs_per_add", "count"},
      {"snapshot.capture_us", "us"},
      {"snapshot.restore_us", "us"},
      {"snapshot.forks", "count"},
      {"snapshot.fault_recoveries", "count"},
      {"fault.lost_exec_ratio", "ratio"},
      {"fault.retries_per_kexec", "1/kexec"},
      {"checkpoint.serialize_ms_p50", "ms"},
      {"checkpoint.resume_ms_p50", "ms"},
      {"checkpoint.mb_p50", "MB"},
      {"checkpoint.samples", "count"},
      {"checkpoint.share", "ratio"},
      {"service.quanta", "count"},
      {"service.quantum_ms_p50", "ms"},
      {"service.quantum_ms_p90", "ms"},
      {"service.run_share", "ratio"},
      {"service.setup_share", "ratio"},
      {"service.setup_ms_per_quantum", "ms"},
      {"fleet.busy_s", "s"},
      {"fleet.idle_share", "ratio"},
      {"fleet.barrier_share", "ratio"},
      {"fleet.busy_imbalance", "ratio"},
      {"probe.ms", "ms"},
      {"probe.samples", "count"},
      {"other.share", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"oracle.mismatches", "count"},
  };
  return kMetrics;
}

namespace {

std::vector<std::string> catalog_ids() {
  std::vector<std::string> ids;
  for (const auto& spec : df::device::device_table()) ids.push_back(spec.id);
  return ids;
}

// The workloads. --tiny shrinks every budget for the self-test.
CampaignWorkload campaign_144h(bool tiny) {
  CampaignWorkload w;
  w.devices = catalog_ids();
  w.execs_per_device = tiny ? 1536 : 90000;  // the paper's 144 h
  w.window = tiny ? 512 : 10240;
  return w;
}

ServiceWorkload service_faults(bool tiny) {
  ServiceWorkload w;
  w.jobs = tiny ? 2 : 10;
  w.budget = tiny ? 1024 : 5632;
  return w;
}

void print_result(const Outcome& out, bool trace) {
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  std::set<std::string> seen;
  for (const auto& m : out.metrics) {
    if (!seen.insert(m.name).second) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::fprintf(stderr, "perfbench: %s mode, %llu/%llu operations failed\n",
               trace ? "traced" : "timed",
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.attempted));
  for (const auto& f : out.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload campaign_144h|service_faults "
               "--seed N --seconds S --trace 0|1 [--tiny] [--work-dir DIR] "
               "[--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (a == "--spans-out" && has_value) {
      opt.spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/work";
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  Outcome out;
  if (opt.workload == "campaign_144h") {
    const CampaignWorkload w = campaign_144h(opt.tiny);
    if (opt.trace) {
      trace_campaign(opt, w, out);
    } else {
      run_campaign(opt, w, out);
    }
  } else if (opt.workload == "service_faults") {
    const ServiceWorkload w = service_faults(opt.tiny);
    if (opt.trace) {
      trace_service(opt, w, out);
    } else {
      run_service(opt, w, out);
    }
  } else {
    std::filesystem::remove_all(opt.work_dir, ec);
    return usage();
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  print_result(out, opt.trace);
  return 0;
}
