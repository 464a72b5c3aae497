// The Fuzzing Engine (paper §IV-A): one per device. Drives the full loop —
// pre-testing HAL probing, relational generation, brokered execution,
// cross-boundary feedback analysis, relation learning with minimization,
// and periodic relation decay.
//
// The ablation variants and the DROIDFUZZ-D comparison configuration are
// all expressible through EngineConfig:
//   DF-NoRel   : gen.use_relations = false, learn_relations = false
//   DF-NoHCov  : hal_feedback = false
//   DROIDFUZZ-D: gen.ioctl_only = true
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/dataflow.h"
#include "analysis/reachability.h"
#include "analysis/semantic.h"
#include "core/exec/broker.h"
#include "core/feedback/coverage.h"
#include "core/fuzz/crash.h"
#include "core/gen/generator.h"
#include "core/probe/hal_probe.h"
#include "core/relation/graph.h"
#include "device/device.h"
#include "dsl/descr.h"
#include "obs/analytics.h"
#include "obs/obs.h"
#include "obs/stats_reporter.h"

namespace df::core {

struct EngineConfig {
  uint64_t seed = 1;
  GenConfig gen;
  bool probe_hal = true;       // run §IV-B probing and fuzz HAL interfaces
  bool hal_feedback = true;    // §IV-D directional coverage (off: DF-NoHCov)
  bool learn_relations = true; // §IV-C edge learning (off: DF-NoRel)
  double decay_factor = 0.95;  // periodic edge-weight reduction
  uint64_t decay_every = 512;  // executions between decays
  bool minimize_new_seeds = true;
  size_t minimize_budget = 24;  // oracle executions per minimization
  bool reboot_on_bug = true;
  // Static analysis (src/analysis): semantic lint gate on generated
  // programs and minimization candidates (analysis.rejected / .repaired),
  // and reachability-plan injection for driver states with zero visits
  // (analysis.plans_injected) every `plan_every` executions.
  bool lint_programs = true;
  bool use_reachability_plans = true;
  uint64_t plan_every = 512;
  // Campaign analytics (DESIGN.md §11): per-operator yield attribution and
  // per-step new-state accounting. Purely observational — per-device
  // results are bit-identical with this on or off (lineage edges and plan
  // outcome counters are always recorded; they cost nothing on the hot
  // path and crash provenance depends on them).
  bool analytics = true;
  // Subsumption-based corpus distillation (DESIGN.md §12): when true, the
  // daemon computes dry-run distill stats at every checkpoint boundary and
  // exports them (BENCH_*.json "distill", /status "distill"). Dry-run only
  // — a destructive distill mid-campaign would change corpus pick indices
  // and break the checkpoint-resume == uninterrupted-run contract; use
  // Engine::distill_corpus(false) / Daemon::distill_corpora(false) for the
  // real thing at campaign end.
  bool distill_at_checkpoint = true;
  // Substrate fault injection (fault.rate == 0 disables; a disabled layer
  // is bit-identical to no layer at all). The plan's RNG stream is derived
  // from `seed` unless fault.seed overrides it.
  device::FaultPlanConfig fault;
  TransportPolicy transport;
  // Copy-on-write snapshot layer (DESIGN.md §13). When on, the engine
  // captures a snapshot whenever an execution pushes the driver-state
  // frontier (a state tally goes from zero to nonzero), keeps the most
  // recent `snapshot_pool` of them, and every `snapshot_every` executions
  // injects one generated program that runs *from a restored snapshot*
  // (origin snapshot_fork) instead of the device's rolling state. Fault
  // recovery after a hang/reboot restores the last good snapshot instead
  // of the full reestablish() replay. Per-device results stay bit-identical
  // across worker counts and checkpoint-resume for a fixed setting;
  // toggling snapshots (like lint/plans) selects a different — equally
  // deterministic — trajectory. Baselines (syzkaller/difuze) opt out.
  // snapshot_every trades exploration styles: small values fork (and thus
  // rewind the rolling device state) often, large values mostly let the
  // campaign roll and only dip back into deep states occasionally. 384
  // keeps shallow-bug discovery times close to the no-fork trajectory
  // while still forking a few hundred times per full campaign.
  bool use_snapshots = true;
  uint64_t snapshot_every = 384;
  size_t snapshot_pool = 4;
};

// Counters for the snapshot layer (exported under "snapshot" in the bench
// JSON; all zero when use_snapshots is off).
struct SnapshotStats {
  uint64_t captures = 0;
  uint64_t restores = 0;          // forks + fault recoveries
  uint64_t forks = 0;             // snapshot-forked programs executed
  uint64_t fault_recoveries = 0;  // restore-instead-of-reestablish events
  uint64_t prefix_execs_saved = 0;  // establishment executions not re-run
  uint64_t prefix_calls_saved = 0;  // calls in those establishment prefixes
  // Dirty-struct delta totals across all captures.
  uint64_t sections_total = 0;
  uint64_t sections_shared = 0;
  uint64_t bytes_total = 0;
  uint64_t bytes_shared = 0;
};

struct StepStats {
  size_t new_features = 0;
  bool added_to_corpus = false;
  bool kernel_bug = false;
  bool hal_crash = false;
  size_t new_bugs = 0;
  bool lost_exec = false;  // transport fault ate the execution
};

// Replays programs for their coverage footprints (DESIGN.md §12) on one
// scratch device built from a campaign device's catalog spec and seed, and
// rewound to its freshly booted image before every replay. Each footprint
// is therefore the one a brand-new device would report, whatever was
// replayed before it. Engine::footprint_replayer() makes one per distill
// pass; the campaign device is never touched.
class FootprintReplayer {
 public:
  FootprintReplayer(const device::Device& campaign,
                    const trace::SpecTable& spec, const ExecOptions& opt);

  // The execution's feature set plus one token per driver state-transition
  // the replay exercised.
  std::vector<uint64_t> replay(const dsl::Program& prog);
  // Scratch devices built so far: 1, plus one per failed restore.
  uint64_t builds() const { return builds_; }

 private:
  void rebuild();

  std::string id_;
  uint64_t seed_;
  const trace::SpecTable& spec_;
  ExecOptions opt_;
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<Broker> broker_;
  device::StateSnapshot pristine_;
  uint64_t builds_ = 0;
};

class Engine {
 public:
  Engine(device::Device& dev, EngineConfig cfg);

  // Builds the call table (syscall descriptions + probed HAL interfaces),
  // the spec table, the relation graph, and the broker. Must be called
  // before step()/run(); run() calls it lazily.
  void setup();
  bool ready() const { return broker_ != nullptr; }

  StepStats step();
  void run(uint64_t executions);

  // --- observability ---------------------------------------------------------
  // Attach campaign telemetry (null = off, the default). Threads the bundle
  // into the broker and probe, installs the device reboot hook, and caches
  // metric pointers (phase histograms + engine counters labeled by device
  // id) so step() pays only null-checks when detached. Span tracing and the
  // flight recorder are cached only if already enabled on the bundle —
  // enable them *before* attaching.
  void attach_observability(obs::Observability* o);
  obs::Observability* observability() const { return obs_; }
  // One stats-reporter observation of this engine's current state.
  obs::EngineSample sample() const;
  // Per-driver state-machine positions (state index per kernel driver, in
  // registration order — aligned with state_coverage() entries).
  std::vector<uint8_t> driver_state_snapshot() const;
  // State-transition coverage matrices for every kernel driver (drivers
  // without a state machine have empty `states`).
  std::vector<obs::DriverStateCoverage> state_coverage() const;
  // Directory for crash_<hash>.json provenance reports ("" disables).
  void set_crash_dir(std::string dir) {
    crash_log_.set_provenance_dir(std::move(dir));
  }

  uint64_t executions() const { return exec_count_; }
  // The paper's coverage proxy: cumulative *kernel* features.
  size_t kernel_coverage() const { return features_.kernel_size(); }
  size_t total_coverage() const { return features_.size(); }
  const FeatureSet& features() const { return features_; }
  const CrashLog& crashes() const { return crash_log_; }
  const Corpus& corpus() const { return corpus_; }
  Corpus& corpus_mutable() { return corpus_; }
  const RelationGraph& relations() const { return rel_; }
  const dsl::CallTable& calls() const { return table_; }
  const std::optional<ProbeResult>& probe_result() const { return probed_; }
  device::Device& device() { return dev_; }
  Broker& broker() { return *broker_; }
  const EngineConfig& config() const { return cfg_; }

  // Minimizes a crash reproducer against its normalized title (extra
  // utility used by triage tooling and tests).
  dsl::Program minimize_crash(const BugRecord& bug, size_t budget = 48);

  // --- static analysis -------------------------------------------------------
  const analysis::ProgramLint& lint() const { return lint_; }
  // The guard index driving dataflow-targeted mutation (empty when
  // cfg.gen.dataflow_bias is off or no driver declares transitions).
  const analysis::GuardIndex& guard_index() const { return guards_; }

  // --- corpus distillation (DESIGN.md §12) -----------------------------------
  // Dynamic coverage footprint of `prog`, replayed on a *scratch* device
  // built from the same catalog spec and seed and rewound to its freshly
  // booted image — the campaign device, RNG and feature set are untouched.
  // The footprint is the execution's feature set plus one token per driver
  // state-transition the replay exercised, so two programs with equal
  // footprints drive identical coverage.
  std::vector<uint64_t> replay_footprint(const dsl::Program& prog);
  // A replayer for many footprints in a row (one scratch device for all of
  // them); replay_footprint and distill_corpus both replay through one.
  FootprintReplayer footprint_replayer();
  // Runs Corpus::distill with the scratch-replay oracle. `dry_run` reports
  // what distillation would drop without touching the corpus (the only mode
  // safe mid-campaign; see EngineConfig::distill_at_checkpoint).
  DistillStats distill_corpus(bool dry_run = false);
  // Stats of the most recent distill_corpus() call on this engine.
  bool has_distill_stats() const { return has_distill_stats_; }
  const DistillStats& distill_stats() const { return last_distill_; }

  // Reachability diagnostics: for every driver state with zero campaign
  // visits, the declared-graph plan that would reach it (if any). This is
  // the "states never visited + a candidate plan" report from the planner.
  struct UnvisitedStatePlan {
    std::string driver;
    analysis::StatePlan plan;
  };
  std::vector<UnvisitedStatePlan> unvisited_state_plans() const;

  // --- campaign analytics (DESIGN.md §11) ------------------------------------
  // The per-operator yield table (empty rows when cfg.analytics is off).
  const obs::OperatorAttribution& attribution() const { return attribution_; }
  // Coverage-frontier explainer: every declared-but-unvisited driver state
  // classified as unreachable-from-frontier / planned-but-failed /
  // never-attempted, joined with the plan-outcome counters.
  obs::FrontierReport frontier_report() const;
  // Operators + corpus lineage digest + frontier, ready for export.
  obs::AnalyticsSnapshot analytics_snapshot() const;

  // The engine's fault injector (null when cfg.fault.rate == 0).
  FaultInjector* fault_injector() { return fault_.get(); }

  // --- snapshot layer (DESIGN.md §13) ----------------------------------------
  const SnapshotStats& snapshot_stats() const { return snap_stats_; }
  size_t snapshot_pool_size() const { return snap_pool_.size(); }
  const std::shared_ptr<const device::StateSnapshot>& last_good_snapshot()
      const {
    return last_good_;
  }

 private:
  friend class CampaignCheckpoint;

  // A queued injection-or-replay program with its attribution tag and, for
  // reachability plans, the (driver index, state) it targets so the
  // frontier report can count executed-but-no-visit outcomes.
  struct QueuedProgram {
    dsl::Program prog;
    obs::ProgramOrigin origin = obs::ProgramOrigin::kPlanInjected;
    uint64_t parent_hash = 0;
    bool has_target = false;
    size_t target_driver = 0;  // kernel driver registration index
    size_t target_state = 0;
    // Non-null for snapshot forks: the deep state to restore before
    // executing `prog` (DESIGN.md §13).
    std::shared_ptr<const device::StateSnapshot> snapshot;
  };
  // Plan outcomes per (driver index, state): how often the engine injected
  // a plan for the state, failed to materialize one, or ran one without the
  // state being entered. Feeds the planned-but-failed frontier class.
  struct PlanAttempt {
    uint64_t injected = 0;
    uint64_t materialize_failed = 0;
    uint64_t executed_no_visit = 0;
  };

  void analyze(const dsl::Program& prog, const ExecResult& res,
               StepStats& stats);
  // Attaches the derivation chain (corpus ancestry + the triggering
  // program) to the bug record just appended by the crash log.
  void record_bug_lineage(const dsl::Program& prog);
  void learn_from(const dsl::Program& prog);
  // Device re-establishment after a fault-induced reboot: replay
  // reachability plans for the wiped driver states and re-warm the corpus
  // protocol state by re-queuing the most recent seeds.
  void reestablish(const ExecResult& res);
  // Fault recovery dispatch: restore the last good snapshot when the layer
  // is on (falling back to reestablish() if none exists or it fails).
  void recover_from_fault(const ExecResult& res);
  // Captures the current device state into the snapshot pool (COW against
  // the previous capture); `prog` is the program that established it.
  void capture_frontier_snapshot(const dsl::Program& prog);
  // Enqueues one generated program to run from a pooled snapshot.
  void enqueue_snapshot_fork();
  // Materializes plans for zero-visit states into the injection queue.
  void refill_plan_queue();
  ExecOptions exec_options() const;
  CrashContext make_crash_context(const ExecResult& res) const;
  // Cold-path telemetry emitters; only called when obs_ != nullptr.
  void record_step(const ExecResult& res, const StepStats& stats,
                   bool decayed);
  void record_bug(const BugRecord& bug);

  device::Device& dev_;
  EngineConfig cfg_;
  util::Rng rng_;
  dsl::CallTable table_;
  trace::SpecTable spec_;
  RelationGraph rel_;
  FeatureSet features_;
  Corpus corpus_;
  CrashLog crash_log_;
  std::optional<ProbeResult> probed_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<Generator> gen_;
  std::unique_ptr<FaultInjector> fault_;
  uint64_t exec_count_ = 0;

  // Pipeline gate: structural validity plus a *bounded* use-after-close
  // pass. The dataflow engine's lifetime lattice is precise enough to gate
  // on, but one stale-handle use per program is still allowed through —
  // operating on a destroyed handle is a core fuzzing behaviour (stale
  // error paths are exactly where use-after-free bugs live, e.g.
  // bt_accept_unlink) — while programs piling up stale uses are repaired.
  // Dead statements are advisory and left to the minimizer. df_lint keeps
  // all four passes strict (allowance 0) for offline analysis.
  static analysis::LintOptions gate_lint_options() {
    analysis::LintOptions o;
    o.use_after_close = true;
    o.stale_handle_allowance = 1;
    o.dead_statements = false;
    return o;
  }
  analysis::ProgramLint lint_{gate_lint_options()};
  // Declared-transition guard index for dataflow-targeted mutation; built
  // once in setup() when cfg.gen.dataflow_bias is on.
  analysis::GuardIndex guards_;
  // Most recent distill_corpus() outcome (for /status + bench export).
  DistillStats last_distill_;
  bool has_distill_stats_ = false;
  // (kernel driver index, planner over its declared graph)
  std::vector<std::pair<size_t, analysis::ReachabilityPlanner>> planners_;
  std::deque<QueuedProgram> plan_queue_;

  // --- snapshot layer state (DESIGN.md §13) ---------------------------------
  // Pool of frontier snapshots, oldest first; each is COW against its
  // predecessor. last_good_ is the most recent capture (fault-recovery
  // target). snap_seq_ is campaign-cumulative and survives checkpoints so
  // resumed runs mint the same sequence ids.
  std::vector<std::shared_ptr<const device::StateSnapshot>> snap_pool_;
  std::shared_ptr<const device::StateSnapshot> last_good_;
  uint64_t snap_seq_ = 0;
  SnapshotStats snap_stats_;

  // --- analytics state (DESIGN.md §11) --------------------------------------
  // Total driver states ever entered (cheap recount over visit tallies).
  uint64_t count_states_visited() const;
  obs::OperatorAttribution attribution_;
  std::map<std::pair<size_t, size_t>, PlanAttempt> plan_attempts_;
  // Attribution tag of the program the current step() is executing; set
  // before analyze() so corpus/bug bookkeeping can consume it.
  obs::ProgramOrigin step_origin_ = obs::ProgramOrigin::kGenerate;
  uint64_t step_parent_hash_ = 0;

  obs::Observability* obs_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;       // cached only when enabled
  obs::FlightRecorder* flight_ = nullptr;  // cached only when enabled
  obs::Histogram* h_generate_ = nullptr;
  obs::Histogram* h_analyze_ = nullptr;
  obs::Histogram* h_minimize_ = nullptr;
  obs::Counter* c_execs_ = nullptr;
  obs::Counter* c_new_features_ = nullptr;
  obs::Counter* c_corpus_adds_ = nullptr;
  obs::Counter* c_bugs_ = nullptr;
  obs::Counter* c_decays_ = nullptr;
  obs::Counter* c_min_oracle_ = nullptr;
  obs::Counter* c_relations_ = nullptr;
  obs::Counter* c_lint_rejected_ = nullptr;
  obs::Counter* c_lint_repaired_ = nullptr;
  obs::Counter* c_plans_injected_ = nullptr;
  // Fault-campaign counters; created only when cfg.fault.rate > 0 so a
  // fault-free campaign's metrics snapshot is byte-identical to before.
  obs::Counter* c_f_reboots_ = nullptr;
  obs::Counter* c_f_retries_ = nullptr;
  obs::Counter* c_f_lost_ = nullptr;
};

}  // namespace df::core
