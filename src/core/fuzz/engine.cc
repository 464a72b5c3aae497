#include "core/fuzz/engine.h"

#include <algorithm>
#include <unordered_set>

#include "core/descriptions.h"
#include "core/gen/minimize.h"
#include "device/catalog.h"
#include "util/log.h"

namespace df::core {

Engine::Engine(device::Device& dev, EngineConfig cfg)
    : dev_(dev), cfg_(cfg), rng_(cfg.seed) {}

ExecOptions Engine::exec_options() const {
  ExecOptions opt;
  opt.collect_cov = true;
  opt.hal_directional = cfg_.hal_feedback;
  opt.reboot_on_bug = cfg_.reboot_on_bug;
  return opt;
}

void Engine::setup() {
  if (ready()) return;

  // Kernel surface: authored syscall descriptions (syzkaller-style).
  add_syscall_descriptions(table_, dev_);

  // HAL surface: pre-testing probing (§IV-B) discovers interfaces, argument
  // types, and normalized-occurrence weights.
  if (cfg_.probe_hal) {
    HalProber prober(dev_, rng_.next(), obs_);
    probed_ = prober.probe();
    std::unordered_set<std::string> done;
    for (const auto& pm : probed_->methods) {
      if (!pm.responsive) continue;
      if (!done.insert(pm.service).second) continue;
      const hal::InterfaceDesc* iface =
          dev_.service_manager().get_interface(pm.service);
      if (iface != nullptr) {
        add_hal_interface(table_, pm.service, *iface,
                          probed_->method_weights_for(pm.service));
      }
    }
  }

  // Specialized-syscall lookup table (§IV-D), compiled at initialization.
  spec_ = make_spec_table(table_);

  // Relation graph (§IV-C): vertices carry description/probe weights,
  // E starts empty.
  for (const dsl::CallDesc* d : table_.all()) rel_.add_vertex(d, d->weight);

  broker_ = std::make_unique<Broker>(dev_, spec_);
  if (obs_ != nullptr) broker_->attach_observability(obs_, dev_.spec().id);
  if (cfg_.fault.rate > 0) {
    device::FaultPlan plan(cfg_.fault, derive_fault_seed(cfg_.seed));
    fault_ = std::make_unique<FaultInjector>(std::move(plan),
                                             cfg_.transport);
    broker_->set_fault_injector(fault_.get());
  }
  gen_ = std::make_unique<Generator>(table_, rel_, corpus_, rng_,
                                     cfg_.gen);
  if (cfg_.lint_programs) {
    gen_->set_lint(&lint_, c_lint_rejected_, c_lint_repaired_);
  }
  // Dataflow-targeted mutation: index every driver's declared transition
  // guards once; the mutator biases arg edits toward guard-relevant
  // parameters. Baselines set gen.dataflow_bias = false and keep the
  // historical uniform arg choice (and RNG stream).
  if (cfg_.gen.dataflow_bias) {
    for (const auto& d : dev_.kernel().drivers()) guards_.add_driver(*d);
    if (!guards_.empty()) gen_->set_guard_index(&guards_);
  }

  // Reachability planners over each driver's declared transition graph
  // (drivers without one contribute nothing).
  const auto& drvs = dev_.kernel().drivers();
  for (size_t i = 0; i < drvs.size(); ++i) {
    analysis::StateGraph g = analysis::graph_of(*drvs[i]);
    if (g.empty()) continue;
    planners_.emplace_back(i, analysis::ReachabilityPlanner(std::move(g)));
  }
  DF_CLOG("engine", kInfo) << "engine[" << dev_.spec().id << "]: "
                           << table_.size() << " calls, " << spec_.size()
                           << " specialized ids, " << planners_.size()
                           << " state planners";
}

void Engine::attach_observability(obs::Observability* o) {
  obs_ = o;
  if (o == nullptr) {
    spans_ = nullptr;
    flight_ = nullptr;
    h_generate_ = h_analyze_ = h_minimize_ = nullptr;
    c_execs_ = c_new_features_ = c_corpus_adds_ = c_bugs_ = nullptr;
    c_decays_ = c_min_oracle_ = c_relations_ = nullptr;
    c_lint_rejected_ = c_lint_repaired_ = c_plans_injected_ = nullptr;
    c_f_reboots_ = c_f_retries_ = c_f_lost_ = nullptr;
    if (gen_ != nullptr && cfg_.lint_programs) {
      gen_->set_lint(&lint_, nullptr, nullptr);
    }
    if (broker_ != nullptr) broker_->attach_observability(nullptr, {});
    dev_.set_reboot_hook(nullptr);
    return;
  }
  spans_ = o->spans.enabled() ? &o->spans : nullptr;
  flight_ = o->flight.enabled() ? &o->flight : nullptr;
  const std::string& id = dev_.spec().id;
  auto& reg = o->registry;
  h_generate_ = &reg.histogram("phase.generate", id);
  h_analyze_ = &reg.histogram("phase.analyze", id);
  h_minimize_ = &reg.histogram("phase.minimize", id);
  c_execs_ = &reg.counter("engine.executions", id);
  c_new_features_ = &reg.counter("engine.new_features", id);
  c_corpus_adds_ = &reg.counter("engine.corpus_adds", id);
  c_bugs_ = &reg.counter("engine.bugs", id);
  c_decays_ = &reg.counter("engine.decays", id);
  c_min_oracle_ = &reg.counter("minimize.oracle_execs", id);
  c_relations_ = &reg.counter("relation.observations", id);
  c_lint_rejected_ = &reg.counter("analysis.rejected", id);
  c_lint_repaired_ = &reg.counter("analysis.repaired", id);
  c_plans_injected_ = &reg.counter("analysis.plans_injected", id);
  if (cfg_.fault.rate > 0) {
    c_f_reboots_ = &reg.counter("campaign.reboots", id);
    c_f_retries_ = &reg.counter("campaign.retries", id);
    c_f_lost_ = &reg.counter("campaign.lost_execs", id);
  }
  // attach can run before or after setup(); re-thread the generator's lint
  // counters when it already exists.
  if (gen_ != nullptr && cfg_.lint_programs) {
    gen_->set_lint(&lint_, c_lint_rejected_, c_lint_repaired_);
  }
  if (broker_ != nullptr) broker_->attach_observability(o, id);
  dev_.set_reboot_hook([this](uint64_t reboot_count) {
    if (obs_ == nullptr) return;
    obs_->registry.counter("device.reboots", dev_.spec().id).inc();
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kReboot;
    ev.device = dev_.spec().id;
    ev.exec_index = exec_count_;
    ev.with("total_reboots", reboot_count);
    obs_->trace.emit(std::move(ev));
  });
}

std::vector<uint8_t> Engine::driver_state_snapshot() const {
  const auto& drvs = dev_.kernel().drivers();
  std::vector<uint8_t> out;
  out.reserve(drvs.size());
  for (const auto& d : drvs) {
    out.push_back(static_cast<uint8_t>(d->current_state()));
  }
  return out;
}

std::vector<obs::DriverStateCoverage> Engine::state_coverage() const {
  return snapshot_driver_states(dev_.kernel());
}

CrashContext Engine::make_crash_context(const ExecResult& res) const {
  CrashContext ctx;
  ctx.device = dev_.spec().id;
  ctx.seed = cfg_.seed;
  ctx.exec_index = exec_count_;
  ctx.flight = flight_;
  // Crash-time driver states: when the reboot policy already ran, the live
  // kernel is freshly booted and its state machines are wiped — use the
  // pre-reboot snapshot the broker took instead.
  ctx.state_coverage =
      res.states_at_crash.empty() ? state_coverage() : res.states_at_crash;
  for (const auto& rep : res.kernel_reports) {
    std::string line = rep.title;
    if (!rep.detail.empty()) {
      line += " | ";
      line += rep.detail;
    }
    ctx.kernel_context.push_back(std::move(line));
  }
  for (const auto& crash : res.hal_crashes) {
    ctx.hal_context.push_back(crash.service + " " + crash.signal + " at " +
                              crash.site);
  }
  return ctx;
}

obs::EngineSample Engine::sample() const {
  obs::EngineSample s;
  s.executions = exec_count_;
  s.kernel_coverage = features_.kernel_size();
  s.total_coverage = features_.size();
  s.corpus_size = corpus_.size();
  s.unique_bugs = crash_log_.unique_bugs();
  s.relation_edges = rel_.edge_count();
  s.reboots = dev_.kernel().reboot_count();
  for (const auto& cov : state_coverage()) {
    s.states_visited += cov.states_visited();
  }
  return s;
}

void Engine::learn_from(const dsl::Program& prog) {
  size_t observed = 0;
  for (size_t i = 0; i + 1 < prog.calls.size(); ++i) {
    rel_.observe_relation(prog.calls[i].desc, prog.calls[i + 1].desc);
    ++observed;
  }
  if (obs_ != nullptr && observed > 0) {
    c_relations_->inc(observed);
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kRelationLearn;
    ev.device = dev_.spec().id;
    ev.exec_index = exec_count_;
    ev.with("pairs", static_cast<uint64_t>(observed))
        .with("edges", static_cast<uint64_t>(rel_.edge_count()));
    obs_->trace.emit(std::move(ev));
  }
}

void Engine::record_bug(const BugRecord& bug) {
  c_bugs_->inc();
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kBug;
  ev.device = dev_.spec().id;
  ev.exec_index = exec_count_;
  ev.with("title", bug.title)
      .with("component", bug.component)
      .with("origin", bug.origin)
      .with("class", bug.bug_class)
      .with("repro_calls", static_cast<uint64_t>(bug.repro.size()));
  obs_->trace.emit(std::move(ev));
}

void Engine::record_step(const ExecResult& res, const StepStats& stats,
                         bool decayed) {
  c_execs_->inc();
  if (stats.new_features > 0) c_new_features_->inc(stats.new_features);
  if (stats.added_to_corpus) c_corpus_adds_->inc();
  if (decayed) c_decays_->inc();

  auto& tr = obs_->trace;
  const std::string& id = dev_.spec().id;
  if (tr.record_execs()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kExec;
    ev.device = id;
    ev.exec_index = exec_count_;
    ev.with("calls", static_cast<uint64_t>(res.calls_executed))
        .with("new_features", static_cast<uint64_t>(stats.new_features))
        .with("kernel_bug", static_cast<uint64_t>(stats.kernel_bug ? 1 : 0))
        .with("hal_crash", static_cast<uint64_t>(stats.hal_crash ? 1 : 0))
        .with("rebooted", static_cast<uint64_t>(res.rebooted ? 1 : 0));
    tr.emit(std::move(ev));
  }
  if (stats.new_features > 0) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kNewCoverage;
    ev.device = id;
    ev.exec_index = exec_count_;
    ev.with("new_features", static_cast<uint64_t>(stats.new_features))
        .with("kernel_total", static_cast<uint64_t>(features_.kernel_size()))
        .with("total", static_cast<uint64_t>(features_.size()));
    tr.emit(std::move(ev));
  }
  if (stats.added_to_corpus) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kCorpusAdd;
    ev.device = id;
    ev.exec_index = exec_count_;
    ev.with("corpus_size", static_cast<uint64_t>(corpus_.size()));
    tr.emit(std::move(ev));
  }
  if (decayed) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kDecay;
    ev.device = id;
    ev.exec_index = exec_count_;
    ev.with("edges", static_cast<uint64_t>(rel_.edge_count()));
    tr.emit(std::move(ev));
  }
}

void Engine::analyze(const dsl::Program& prog, const ExecResult& res,
                     StepStats& stats) {
  // Crashes first: every report is triaged against this program.
  for (const auto& rep : res.kernel_reports) {
    if (crash_log_.record_kernel(rep, prog, exec_count_)) {
      ++stats.new_bugs;
      record_bug_lineage(prog);
      if (obs_ != nullptr) record_bug(crash_log_.bugs().back());
    }
    stats.kernel_bug = true;
  }
  for (const auto& crash : res.hal_crashes) {
    if (crash_log_.record_hal(crash, prog, exec_count_)) {
      ++stats.new_bugs;
      record_bug_lineage(prog);
      if (obs_ != nullptr) record_bug(crash_log_.bugs().back());
    }
    stats.hal_crash = true;
  }

  const std::vector<uint64_t> fresh = features_.add_new(res.features);
  stats.new_features = fresh.size();
  if (fresh.empty()) return;

  // Minimize to the essential calls (§IV-C), then learn relations from the
  // minimized program's adjacencies and keep it as a seed.
  dsl::Program seed_prog = prog;
  bool minimized = false;
  if (cfg_.minimize_new_seeds && prog.calls.size() > 1) {
    std::unordered_set<uint64_t> wanted(fresh.begin(), fresh.end());
    auto oracle = [&](const dsl::Program& cand) {
      const ExecResult r = broker_->execute(cand, exec_options());
      for (uint64_t f : r.features) {
        if (wanted.count(f) != 0) return true;
      }
      return false;
    };
    MinimizeStats mstats;
    seed_prog = minimize(prog, oracle, cfg_.minimize_budget, &mstats,
                         h_minimize_, cfg_.lint_programs ? &lint_ : nullptr);
    if (obs_ != nullptr) c_min_oracle_->inc(mstats.oracle_calls);
    minimized = mstats.calls_removed > 0 || mstats.args_simplified > 0;
    if (cfg_.analytics) {
      attribution_.record_minimize(mstats.oracle_calls, minimized);
    }
  }
  if (cfg_.learn_relations) learn_from(seed_prog);

  Seed seed;
  seed.prog = std::move(seed_prog);
  seed.new_features = fresh.size();
  seed.exec_index = exec_count_;
  // Lineage: the stored program descends from the step's corpus parent; a
  // minimizer rewrite is its own derivation step in the origin tag.
  seed.parent_hash = step_parent_hash_;
  seed.origin =
      minimized ? obs::ProgramOrigin::kMinimized : step_origin_;
  stats.added_to_corpus = corpus_.add(std::move(seed));
}

void Engine::record_bug_lineage(const dsl::Program& prog) {
  BugRecord& bug = crash_log_.bugs_mutable().back();
  bug.lineage = corpus_.ancestor_chain(step_parent_hash_);
  obs::LineageLink trigger;
  trigger.hash = dsl::program_hash(prog);
  trigger.origin = step_origin_;
  trigger.exec_index = exec_count_;
  trigger.depth = bug.lineage.empty() ? 0 : bug.lineage.back().depth + 1;
  bug.lineage.push_back(trigger);
}

StepStats Engine::step() {
  if (!ready()) setup();
  StepStats stats;
  const obs::ScopedSpan iter_span(spans_, "iteration", dev_.spec().id,
                                  exec_count_ + 1);
  // Reachability-plan injection (§ static analysis): periodically seed the
  // queue with programs that drive each driver toward states the campaign
  // has never visited; they are executed in place of generated inputs.
  if (cfg_.use_reachability_plans && cfg_.plan_every != 0 &&
      exec_count_ != 0 && exec_count_ % cfg_.plan_every == 0 &&
      plan_queue_.empty()) {
    refill_plan_queue();
  }
  // Snapshot forks (DESIGN.md §13): periodically run one generated program
  // from a restored deep-state snapshot instead of the rolling state.
  if (cfg_.use_snapshots && cfg_.snapshot_every != 0 && exec_count_ != 0 &&
      exec_count_ % cfg_.snapshot_every == 0 && !snap_pool_.empty() &&
      plan_queue_.empty()) {
    enqueue_snapshot_fork();
  }
  dsl::Program prog;
  bool step_has_target = false;
  size_t step_target_driver = 0;
  size_t step_target_state = 0;
  std::shared_ptr<const device::StateSnapshot> step_snapshot;
  {
    const obs::ScopedTimer t(h_generate_);
    const obs::ScopedSpan s(spans_, "phase:generate", dev_.spec().id,
                            exec_count_ + 1);
    if (!plan_queue_.empty()) {
      QueuedProgram q = std::move(plan_queue_.front());
      plan_queue_.pop_front();
      prog = std::move(q.prog);
      step_origin_ = q.origin;
      step_parent_hash_ = q.parent_hash;
      step_has_target = q.has_target;
      step_target_driver = q.target_driver;
      step_target_state = q.target_state;
      step_snapshot = std::move(q.snapshot);
    } else {
      Generator::Candidate cand = gen_->next_candidate();
      prog = std::move(cand.prog);
      step_origin_ = cand.origin;
      step_parent_hash_ = cand.parent_hash;
    }
  }
  if (prog.empty()) return stats;
  ++exec_count_;
  if (step_snapshot != nullptr) {
    // Rewind to the fork's deep state; the restore replaces the prefix
    // executions that established it. A shape mismatch (cannot happen for
    // same-campaign snapshots) just runs the program from the rolling state.
    if (broker_->restore_snapshot(*step_snapshot)) {
      ++snap_stats_.restores;
      ++snap_stats_.forks;
      ++snap_stats_.prefix_execs_saved;
      snap_stats_.prefix_calls_saved += step_snapshot->estab_calls;
    }
  }
  std::vector<uint8_t> states_before;
  if (flight_ != nullptr) states_before = driver_state_snapshot();
  const size_t bugs_before = crash_log_.unique_bugs();
  const uint64_t states_visited_before =
      (cfg_.analytics || cfg_.use_snapshots) ? count_states_visited() : 0;
  const ExecResult res = broker_->execute(prog, exec_options());
  stats.lost_exec = res.transport_error;
  if (!res.transport_error) {
    const obs::ScopedTimer t(h_analyze_);
    const obs::ScopedSpan s(spans_, "phase:analyze", dev_.spec().id,
                            exec_count_);
    analyze(prog, res, stats);
  }
  // Plan outcome tracking: an injected plan that ran without its target
  // state being entered is the planned-but-failed frontier signal.
  if (step_has_target) {
    const auto& drvs = dev_.kernel().drivers();
    const auto& visits = drvs[step_target_driver]->state_visits();
    if (step_target_state >= visits.size() ||
        visits[step_target_state] == 0) {
      ++plan_attempts_[{step_target_driver, step_target_state}]
            .executed_no_visit;
    }
  }
  // Operator attribution (purely observational; see DESIGN.md §11).
  if (cfg_.analytics) {
    attribution_.record_attempt(step_origin_,
                                static_cast<uint64_t>(prog.calls.size()));
    const uint64_t states_delta =
        count_states_visited() - states_visited_before;
    attribution_.credit(step_origin_,
                        static_cast<uint64_t>(stats.new_features),
                        states_delta, static_cast<uint64_t>(stats.new_bugs),
                        stats.added_to_corpus);
  }
  if (fault_ != nullptr) {
    if (obs_ != nullptr && res.retries > 0) c_f_retries_->inc(res.retries);
    if (obs_ != nullptr && res.transport_error) c_f_lost_->inc();
    if (obs_ != nullptr && res.fault != device::FaultKind::kNone) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFault;
      ev.device = dev_.spec().id;
      ev.exec_index = exec_count_;
      ev.with("kind", std::string(device::fault_kind_name(res.fault)))
          .with("retries", static_cast<uint64_t>(res.retries))
          .with("lost", static_cast<uint64_t>(res.transport_error ? 1 : 0));
      obs_->trace.emit(std::move(ev));
    }
    // A fault-induced reboot wiped kernel + HAL state; recover the device
    // before the next generated input runs against it (snapshot restore
    // when the layer is on, full reestablish otherwise).
    if (res.rebooted && (res.fault == device::FaultKind::kHang ||
                         res.fault == device::FaultKind::kReboot)) {
      recover_from_fault(res);
    }
  }
  // Frontier capture (DESIGN.md §13): a clean execution that pushed the
  // driver-state frontier left the device in a state worth forking from.
  if (cfg_.use_snapshots && !res.transport_error && !res.rebooted &&
      !res.any_bug() && count_states_visited() > states_visited_before) {
    capture_frontier_snapshot(prog);
  }

  if (flight_ != nullptr) {
    obs::ExecutionRecord rec;
    rec.exec_index = exec_count_;
    rec.program = std::make_shared<const dsl::Program>(prog);
    rec.rets = res.rets;
    rec.new_features = stats.new_features;
    rec.kernel_bug = stats.kernel_bug;
    rec.hal_crash = stats.hal_crash;
    rec.transport_fault = res.transport_error;
    rec.states_before = std::move(states_before);
    // Post-reboot when the execution rebooted: the recovery state is what
    // the next execution actually starts from.
    rec.states_after = driver_state_snapshot();
    flight_->push(std::move(rec));
  }
  if (crash_log_.provenance_enabled() &&
      crash_log_.unique_bugs() > bugs_before) {
    const CrashContext ctx = make_crash_context(res);
    for (size_t i = bugs_before; i < crash_log_.unique_bugs(); ++i) {
      crash_log_.write_provenance(crash_log_.bugs()[i], ctx);
    }
  }

  bool decayed = false;
  if (cfg_.decay_every != 0 && exec_count_ % cfg_.decay_every == 0) {
    rel_.decay(cfg_.decay_factor);
    decayed = true;
  }
  if (obs_ != nullptr) record_step(res, stats, decayed);
  return stats;
}

void Engine::run(uint64_t executions) {
  if (!ready()) setup();
  for (uint64_t i = 0; i < executions; ++i) step();
}

dsl::Program Engine::minimize_crash(const BugRecord& bug, size_t budget) {
  if (!ready()) setup();
  const std::string title = bug.title;
  auto oracle = [&](const dsl::Program& cand) {
    const ExecResult r = broker_->execute(cand, exec_options());
    for (const auto& rep : r.kernel_reports) {
      if (normalize_title(rep.title) == title) return true;
    }
    for (const auto& crash : r.hal_crashes) {
      if (hal_crash_title(crash.service) == title) return true;
    }
    return false;
  };
  return minimize(bug.repro, oracle, budget, nullptr, h_minimize_,
                  cfg_.lint_programs ? &lint_ : nullptr);
}

namespace {

// One replay's coverage footprint on a scratch device: the execution's
// features plus a token per driver state-transition it exercised. The
// state matrices are campaign-cumulative (a snapshot restore leaves them
// alone), so transitions are read as before/after deltas. Transition
// tokens live under pseudo-driver 0xFFFE — below the HAL 0xFFFF namespace
// and above every real driver id, so they can never collide with kcov or
// directional features.
std::vector<uint64_t> footprint_on(device::Device& scratch, Broker& broker,
                                   const ExecOptions& opt,
                                   const dsl::Program& prog) {
  const auto& drvs = scratch.kernel().drivers();
  std::vector<std::vector<uint64_t>> before;
  before.reserve(drvs.size());
  for (const auto& d : drvs) before.push_back(d->state_matrix());
  const ExecResult res = broker.execute(prog, opt);
  std::vector<uint64_t> fp = res.features;
  for (size_t di = 0; di < drvs.size(); ++di) {
    const auto& after = drvs[di]->state_matrix();
    const size_t n = drvs[di]->state_names().size();
    if (n == 0) continue;
    for (size_t cell = 0; cell < after.size(); ++cell) {
      const uint64_t prev =
          cell < before[di].size() ? before[di][cell] : 0;
      if (after[cell] > prev) {
        fp.push_back((0xFFFEull << 48) |
                     (static_cast<uint64_t>(di) << 32) |
                     (static_cast<uint64_t>(cell / n) << 16) |
                     static_cast<uint64_t>(cell % n));
      }
    }
  }
  return fp;
}

}  // namespace

// The pristine image is a freshly built and rebooted catalog device, and
// the snapshot layer rewinds everything a replay can observe: heap, VFS,
// every driver including its reboot-persistent blobs (rt1711's probe
// count), KASAN, HAL services, the kernel RNG and any latched panic. A
// failed restore leaves the device unspecified, so the replayer then
// rebuilds it from scratch instead of replaying on it.
FootprintReplayer::FootprintReplayer(const device::Device& campaign,
                                     const trace::SpecTable& spec,
                                     const ExecOptions& opt)
    : id_(campaign.spec().id), seed_(campaign.seed()), spec_(spec),
      opt_(opt) {
  opt_.reboot_on_bug = false;  // every replay starts from a restore anyway
  rebuild();
}

std::vector<uint64_t> FootprintReplayer::replay(const dsl::Program& prog) {
  if (!broker_->restore_snapshot(pristine_)) rebuild();
  return footprint_on(*dev_, *broker_, opt_, prog);
}

void FootprintReplayer::rebuild() {
  broker_.reset();  // exits its task while the old device still exists
  dev_ = device::make_device(id_, seed_);
  broker_ = std::make_unique<Broker>(*dev_, spec_);
  dev_->reboot();
  pristine_ = broker_->capture_snapshot();
  ++builds_;
}

FootprintReplayer Engine::footprint_replayer() {
  if (!ready()) setup();
  return FootprintReplayer(dev_, spec_, exec_options());
}

std::vector<uint64_t> Engine::replay_footprint(const dsl::Program& prog) {
  return footprint_replayer().replay(prog);
}

DistillStats Engine::distill_corpus(bool dry_run) {
  // Every replay of the pass, the verification replays of the kept seeds
  // included, runs on one scratch device rewound to its pristine image
  // before each replay, so a seed's footprint does not depend on where in
  // the sequence it replays (the verification pass replays the kept seeds
  // at other positions). The campaign device never sees any of this.
  FootprintReplayer replayer = footprint_replayer();
  const DistillStats stats = corpus_.distill(
      [&](const dsl::Program& prog) { return replayer.replay(prog); },
      dry_run);
  last_distill_ = stats;
  has_distill_stats_ = true;
  if (obs_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kDistill;
    ev.device = dev_.spec().id;
    ev.exec_index = exec_count_;
    ev.with("before", static_cast<uint64_t>(stats.before))
        .with("after", static_cast<uint64_t>(stats.after))
        .with("dry_run", static_cast<uint64_t>(stats.dry_run ? 1 : 0))
        .with("verified", static_cast<uint64_t>(stats.verified ? 1 : 0));
    obs_->trace.emit(std::move(ev));
  }
  return stats;
}

uint64_t Engine::count_states_visited() const {
  uint64_t total = 0;
  for (const auto& d : dev_.kernel().drivers()) total += d->states_visited();
  return total;
}

obs::FrontierReport Engine::frontier_report() const {
  obs::FrontierReport out;
  const auto& drvs = dev_.kernel().drivers();
  for (const auto& [di, planner] : planners_) {
    const auto& visits = drvs[di]->state_visits();
    const analysis::StateGraph& g = planner.graph();
    out.states_total += g.states.size();
    for (size_t s = 0; s < g.states.size(); ++s) {
      if (s < visits.size() && visits[s] > 0) {
        ++out.states_visited;
        continue;
      }
      const analysis::StatePlan& plan = planner.plans()[s];
      obs::FrontierState f;
      f.driver = g.driver;
      f.state = g.states[s];
      f.state_index = s;
      f.plan_length = plan.steps.size();
      const auto it = plan_attempts_.find({di, s});
      if (it != plan_attempts_.end()) {
        f.plans_injected = it->second.injected;
        f.materialize_failed = it->second.materialize_failed;
        f.executed_no_visit = it->second.executed_no_visit;
      }
      // Exactly one class per unvisited state: no declared route beats
      // everything; any recorded plan attempt (queued, failed to
      // materialize, or executed without a visit) means we tried and
      // failed; otherwise the planner simply never got to it.
      if (!plan.reachable) {
        f.cls = obs::FrontierClass::kUnreachableFromFrontier;
      } else if (f.plans_injected > 0 || f.materialize_failed > 0 ||
                 f.executed_no_visit > 0) {
        f.cls = obs::FrontierClass::kPlannedButFailed;
      } else {
        f.cls = obs::FrontierClass::kNeverAttempted;
      }
      out.unvisited.push_back(std::move(f));
    }
  }
  return out;
}

obs::AnalyticsSnapshot Engine::analytics_snapshot() const {
  obs::AnalyticsSnapshot snap;
  snap.operators = attribution_;
  snap.lineage = corpus_.lineage_summary();
  snap.frontier = frontier_report();
  return snap;
}

std::vector<Engine::UnvisitedStatePlan> Engine::unvisited_state_plans()
    const {
  std::vector<UnvisitedStatePlan> out;
  const auto& drvs = dev_.kernel().drivers();
  for (const auto& [di, planner] : planners_) {
    for (analysis::StatePlan& p : planner.unvisited(drvs[di]->state_visits())) {
      UnvisitedStatePlan u;
      u.driver = std::string(drvs[di]->name());
      u.plan = std::move(p);
      out.push_back(std::move(u));
    }
  }
  return out;
}

void Engine::reestablish(const ExecResult& res) {
  // Device nodes reopen lazily (runtime fds are program-positional), so
  // re-establishment is about campaign state: replay reachability plans
  // for the wiped driver state machines, then re-warm corpus triage by
  // re-queuing the most recent seeds so the protocol state the corpus
  // encodes is re-derived on the fresh kernel.
  const size_t queued_before = plan_queue_.size();
  if (cfg_.use_reachability_plans) refill_plan_queue();
  constexpr size_t kRewarmSeeds = 4;
  const size_t n = std::min(corpus_.size(), kRewarmSeeds);
  for (size_t i = corpus_.size() - n; i < corpus_.size(); ++i) {
    QueuedProgram q;
    q.prog = corpus_.at(i).prog;
    q.origin = obs::ProgramOrigin::kReplay;
    q.parent_hash = corpus_.at(i).hash;
    plan_queue_.push_back(std::move(q));
  }
  if (obs_ != nullptr) {
    c_f_reboots_->inc();
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kRecovery;
    ev.device = dev_.spec().id;
    ev.exec_index = exec_count_;
    ev.with("cause", std::string(device::fault_kind_name(res.fault)))
        .with("replayed",
              static_cast<uint64_t>(plan_queue_.size() - queued_before));
    obs_->trace.emit(std::move(ev));
  }
}

void Engine::recover_from_fault(const ExecResult& res) {
  // Restore-from-last-good-snapshot (DESIGN.md §13): one restore call puts
  // the device back into the deepest known-good state, instead of a clean
  // boot followed by reestablish()'s plan/seed replay executions.
  if (cfg_.use_snapshots && last_good_ != nullptr &&
      broker_->restore_snapshot(*last_good_)) {
    ++snap_stats_.restores;
    ++snap_stats_.fault_recoveries;
    ++snap_stats_.prefix_execs_saved;
    snap_stats_.prefix_calls_saved += last_good_->estab_calls;
    if (obs_ != nullptr) {
      c_f_reboots_->inc();
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kRecovery;
      ev.device = dev_.spec().id;
      ev.exec_index = exec_count_;
      ev.with("cause", std::string(device::fault_kind_name(res.fault)))
          .with("mode", std::string("snapshot"))
          .with("snapshot_seq", last_good_->seq);
      obs_->trace.emit(std::move(ev));
    }
    return;
  }
  reestablish(res);
}

void Engine::capture_frontier_snapshot(const dsl::Program& prog) {
  const device::StateSnapshot* parent =
      snap_pool_.empty() ? nullptr : snap_pool_.back().get();
  auto snap =
      std::make_shared<device::StateSnapshot>(broker_->capture_snapshot(parent));
  snap->seq = ++snap_seq_;
  snap->estab_calls = static_cast<uint64_t>(prog.calls.size());
  ++snap_stats_.captures;
  snap_stats_.sections_total += snap->sections.size();
  snap_stats_.sections_shared += snap->sections_shared;
  snap_stats_.bytes_total += snap->total_bytes();
  snap_stats_.bytes_shared += snap->bytes_shared;
  snap_pool_.push_back(std::move(snap));
  if (snap_pool_.size() > cfg_.snapshot_pool) {
    snap_pool_.erase(snap_pool_.begin());
  }
  last_good_ = snap_pool_.back();
}

void Engine::enqueue_snapshot_fork() {
  // Deterministic round-robin over the pool keyed by the boundary index, so
  // the same campaign point always forks from the same snapshot.
  const size_t idx = static_cast<size_t>(
      (exec_count_ / cfg_.snapshot_every) % snap_pool_.size());
  Generator::Candidate cand = gen_->next_candidate();
  if (cand.prog.empty()) return;
  QueuedProgram q;
  q.prog = std::move(cand.prog);
  q.origin = obs::ProgramOrigin::kSnapshotFork;
  q.parent_hash = cand.parent_hash;
  q.snapshot = snap_pool_[idx];
  plan_queue_.push_back(std::move(q));
}

void Engine::refill_plan_queue() {
  constexpr size_t kMaxQueue = 64;
  const auto& drvs = dev_.kernel().drivers();
  for (const auto& [di, planner] : planners_) {
    for (const analysis::StatePlan& p :
         planner.unvisited(drvs[di]->state_visits())) {
      if (plan_queue_.size() >= kMaxQueue) return;
      if (!p.reachable || p.steps.empty()) continue;
      auto prog = analysis::materialize_plan(p, table_);
      if (!prog.has_value()) {
        // Declared route exists but this table cannot instantiate it — a
        // planned-but-failed frontier outcome.
        ++plan_attempts_[{di, p.state}].materialize_failed;
        continue;
      }
      // The plan leaves handle args unresolved; splice in producers the
      // same way generated programs get them.
      gen_->resolve_producers(*prog);
      if (c_plans_injected_ != nullptr) c_plans_injected_->inc();
      ++plan_attempts_[{di, p.state}].injected;
      QueuedProgram q;
      q.prog = std::move(*prog);
      q.origin = obs::ProgramOrigin::kPlanInjected;
      q.has_target = true;
      q.target_driver = di;
      q.target_state = p.state;
      plan_queue_.push_back(std::move(q));
    }
  }
}

}  // namespace df::core
