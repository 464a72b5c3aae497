// The repo benchmark (README.md in this directory): two closed-loop
// workloads driven through the library's public API from one process.
// Untimed set-up, timed phase, content fingerprints, and — with --trace 1 —
// a separate traced pass that splits wall time across the library's layers
// by timing calls into each layer from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace df::core {
class Daemon;
struct FleetUtilization;
}
namespace df::obs {
struct Snapshot;
}

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny budgets for the self-test (every code path, a few seconds total).
  bool tiny = false;
  // Scratch space for checkpoints and service roots (removed at exit).
  std::string work_dir;
  // Where the traced pass writes its spans (JSON lines).
  std::string spans_out;
};

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

// The result of one benchmark invocation: the operation tally and every
// metric by name with its unit. Printed as the last stdout line.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // One operation ran; `ok` false counts it failed with a diagnostic.
  void operation(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank percentile q in (0,1), or a negative value when fewer than
// ten samples lie beyond it — such a percentile is not reported.
double supported_percentile(std::vector<double> v, double q);

// --- spans -------------------------------------------------------------------

// In-memory span log of the traced pass: the benchmark's own spans around
// calls into the library, nested by a stack (parent = innermost open span).
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;
  };

  size_t begin(std::string name);
  // Closes span `id` (the innermost open one) and returns its seconds.
  double end(size_t id);
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~ScopedSpan() {
    if (!closed_) log_.end(id_);
  }
  double close() {
    closed_ = true;
    return log_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  size_t id_;
  bool closed_ = false;
};

// --- shared measurement helpers ----------------------------------------------

// Phase and counter totals over every device label of a metrics registry
// snapshot (the engine, broker and fault metrics of obs::Observability).
struct PhaseTotals {
  double generate_s = 0, analyze_s = 0, minimize_s = 0, execute_s = 0;
  double probe_s = 0;
  uint64_t execute_count = 0, probe_count = 0;
  uint64_t executions = 0, corpus_adds = 0, oracle_execs = 0;
  uint64_t lint_rejected = 0, lint_repaired = 0;
  uint64_t programs = 0, calls = 0, lost = 0, retries = 0;

  static PhaseTotals of(const df::obs::Snapshot& snap);
  // Field-wise after - before: the work done between two snapshots.
  static PhaseTotals delta(const PhaseTotals& after,
                           const PhaseTotals& before);
  void add(const PhaseTotals& o);
  // Execute time attributable to minimizer oracle runs (nested inside the
  // minimize phase): oracle executions at the mean execute cost.
  double oracle_execute_s() const;
};

// Layer probes on a scratch daemon resumed from a checkpoint: fleet-mean
// cost of one Corpus::pick, one Generator::next_candidate (on copies of
// each engine's corpus and relation graph), and one full
// Broker::capture_snapshot / restore_snapshot. Each is the median over
// repeated sweeps across all devices.
struct ProbeTimes {
  double pick_ns = 0;
  double candidate_ns = 0;
  double capture_us = 0;
  double restore_us = 0;
};
ProbeTimes probe_daemon(df::core::Daemon& d,
                        const std::vector<std::string>& devices,
                        uint64_t seed, bool tiny);

// Set-up repeats per burst; a burst precedes every timed repeat.
constexpr size_t kSetupBurst = 10;

// Set-up samples, taken in bursts spread over a run so that slow drift in
// the host shows in the median rather than in one burst. The first repeat
// of the process is cold and discarded. `once(i)` performs repeat i and
// returns the seconds of its timed part.
class SetupSamples {
 public:
  explicit SetupSamples(std::function<double(size_t)> once)
      : once_(std::move(once)) {}
  void take(size_t n);
  double median_s() const { return median(warm_); }
  size_t count() const { return warm_.size(); }
  double cold_s() const { return cold_s_; }

 private:
  std::function<double(size_t)> once_;
  size_t next_ = 0;
  double cold_s_ = 0;
  std::vector<double> warm_;
};

// Median over repeats of each unit's seconds, summed over units: the run
// time of identical repeated work with transient host stalls filtered out.
// `unit_s[r][k]` is the time of unit k in repeat r.
double median_total_s(const std::vector<std::vector<double>>& unit_s);

double peak_rss_mb();

// Adds the engine-layer metrics of `ph` — generation, lint gate, execution,
// feedback, minimization, fault transport — with shares over `base_s`
// seconds, and returns the sum of the shares they claim.
double add_engine_layers(Outcome& out, const PhaseTotals& ph, double base_s);

// Adds the fleet-layer metrics of one daemon's worker accounting.
void add_fleet_layer(Outcome& out, const df::core::FleetUtilization& util);

// Every per-layer metric with its unit, in reporting order. The traced
// passes fill all of them (0 where a layer does no work in a workload).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// --- workloads ---------------------------------------------------------------

// A fleet campaign: every device fuzzed to `execs_per_device` by one Daemon
// on one worker.
struct CampaignWorkload {
  std::vector<std::string> devices;
  uint64_t execs_per_device = 0;
  // Traced pass: Daemon::run window length and the early probe point (a
  // multiple of the 256-exec slice, so windows keep the slice grid).
  uint64_t window = 10240;
};

// A CampaignService draining one batch of two-device jobs.
struct ServiceWorkload {
  size_t jobs = 0;
  uint64_t budget = 0;  // executions per device per job
};

// End-to-end runs (--trace 0) and traced runs (--trace 1).
void run_campaign(const Options& opt, const CampaignWorkload& w, Outcome& out);
void trace_campaign(const Options& opt, const CampaignWorkload& w,
                    Outcome& out);
void run_service(const Options& opt, const ServiceWorkload& w, Outcome& out);
void trace_service(const Options& opt, const ServiceWorkload& w,
                   Outcome& out);

}  // namespace perfbench
