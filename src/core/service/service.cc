#include "core/service/service.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/fuzz/checkpoint.h"
#include "core/fuzz/daemon.h"
#include "core/fuzz/engine.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/obs.h"
#include "obs/stats_reporter.h"
#include "util/hash.h"

namespace df::core {

namespace {

std::string hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

DaemonConfig daemon_config(const JobSpec& spec, size_t workers,
                           const std::string& checkpoint_dir) {
  DaemonConfig cfg;
  cfg.seed = spec.seed;
  cfg.workers = workers;
  cfg.engine.fault.rate = spec.fault_rate;
  // The checkpoint grid is part of the job's deterministic trajectory
  // (every checkpoint barrier-reboots the fleet), so it is always on —
  // including in the uninterrupted reference run.
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.checkpoint_every = spec.checkpoint_every;
  return cfg;
}

// One campaign process-image: fresh daemon + fresh telemetry, either
// started from scratch or restored from a checkpoint. Built once per
// quantum — exactly the resume pattern the checkpoint tests certify.
struct CampaignRun {
  CampaignRun(const JobSpec& spec, size_t workers, const std::string& dir)
      : rep(spec.sample_every), daemon(daemon_config(spec, workers, dir)) {
    obs.trace.set_record_execs(false);
    daemon.attach_observability(&obs);
    daemon.attach_reporter(&rep);
    for (const auto& id : spec.devices) daemon.add_device(id);
  }
  obs::Observability obs;
  obs::StatsReporter rep;
  Daemon daemon;
};

// The job result document: every content channel of the campaign reduced
// to scalars + 64-bit fingerprints. Contains no job id, no timestamps, no
// queue state — so a preempted service job and an uninterrupted reference
// run of the same spec must produce byte-identical documents (the
// scheduler determinism contract, service.h).
std::string result_json(CampaignRun& run, const JobSpec& spec) {
  std::vector<std::string> ids = spec.devices;
  std::sort(ids.begin(), ids.end());

  std::string bugs;
  size_t bug_count = 0;
  for (const auto& b : run.daemon.all_bugs()) {
    bugs += b.device_id + ":" + b.bug.title + ":" +
            std::to_string(b.bug.dup_count) + "\n";
    ++bug_count;
  }
  std::string analytics;
  std::string snapshots;
  for (const auto& id : ids) {
    Engine* e = run.daemon.engine(id);
    if (e == nullptr) continue;
    obs::JsonWriter aw;
    e->analytics_snapshot().write_json(aw);
    analytics += id + ":" + aw.take() + "\n";
    const SnapshotStats& s = e->snapshot_stats();
    snapshots += id + ":" + std::to_string(s.captures) + "/" +
                 std::to_string(s.restores) + "/" + std::to_string(s.forks) +
                 "/" + std::to_string(s.fault_recoveries) + "/pool=" +
                 std::to_string(e->snapshot_pool_size()) + "/good=" +
                 std::to_string(e->last_good_snapshot() != nullptr
                                    ? e->last_good_snapshot()->seq
                                    : 0) +
                 "\n";
  }

  obs::JsonWriter w;
  w.begin_object();
  w.field("determinism", "v1");
  w.field("devices", static_cast<uint64_t>(ids.size()));
  w.field("executions", run.daemon.total_executions());
  w.field("coverage", static_cast<uint64_t>(run.daemon.total_kernel_coverage()));
  w.field("bugs", static_cast<uint64_t>(bug_count));
  w.field("bugs_hash", hex64(util::fnv1a(bugs)));
  w.field("corpus_hash", hex64(util::fnv1a(run.daemon.save_corpus())));
  w.field("stats_hash",
          hex64(util::fnv1a(run.rep.to_json(/*include_timing=*/false))));
  w.field("trace_hash", hex64(util::fnv1a(run.obs.trace.to_jsonl())));
  w.field("analytics_hash", hex64(util::fnv1a(analytics)));
  w.field("snapshots_hash", hex64(util::fnv1a(snapshots)));
  w.end_object();
  return w.take();
}

obs::HttpResponse json_response(int status, std::string body) {
  obs::HttpResponse r;
  r.status = status;
  r.content_type = "application/json";
  r.body = std::move(body);
  return r;
}

obs::HttpResponse error_response(int status, const std::string& message) {
  obs::JsonWriter w;
  w.begin_object().field("error", message).end_object();
  return json_response(status, w.take());
}

// Splits "/jobs/7/pause" into {"jobs", "7", "pause"}.
std::vector<std::string> path_segments(const std::string& path) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '/') {
      ++pos;
      continue;
    }
    const size_t next = path.find('/', pos);
    out.push_back(path.substr(
        pos, next == std::string::npos ? std::string::npos : next - pos));
    if (next == std::string::npos) break;
    pos = next;
  }
  return out;
}

}  // namespace

CampaignService::CampaignService(ServiceConfig cfg)
    : cfg_(std::move(cfg)), queue_(cfg_.age_every) {
  if (cfg_.quantum_barriers == 0) cfg_.quantum_barriers = 1;
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.serve_port >= 0) start_server();
}

CampaignService::~CampaignService() {
  if (server_ != nullptr) server_->stop();
}

std::string CampaignService::job_dir(uint64_t id) const {
  return cfg_.root_dir + "/job_" + std::to_string(id);
}

std::string CampaignService::manifest_path() const {
  return cfg_.root_dir + "/service.json";
}

void CampaignService::save_manifest_locked() {
  obs::JsonWriter w;
  w.begin_object();
  w.field("service", uint64_t{1});
  w.field("next_id", next_id_);
  w.key("queue").begin_array();
  for (const uint64_t id : queue_.in_pop_order()) w.value(id);
  w.end_array();
  w.key("jobs").begin_array();
  for (const auto& [id, job] : jobs_) job.rec.write_json(w);
  w.end_array();
  w.end_object();
  std::string error;
  CampaignCheckpoint::write_file(manifest_path(), w.take(), &error);
}

bool CampaignService::boot(std::string* error) {
  std::string text;
  std::string read_error;
  if (!CampaignCheckpoint::read_file(manifest_path(), &text, &read_error)) {
    return true;  // no manifest yet: fresh service
  }
  std::string parse_error;
  const auto doc = obs::json_parse(text, &parse_error);
  if (!doc.has_value() || !doc->is_object()) {
    if (error != nullptr) {
      *error = "service manifest: " +
               (parse_error.empty() ? "not a JSON object" : parse_error);
    }
    return false;
  }
  const obs::JsonValue* jobs = doc->find("jobs");
  const obs::JsonValue* queue = doc->find("queue");
  const obs::JsonValue* next = doc->find("next_id");
  if (jobs == nullptr || !jobs->is_array() || queue == nullptr ||
      !queue->is_array() || next == nullptr) {
    if (error != nullptr) *error = "service manifest: missing jobs/queue/next_id";
    return false;
  }

  uint64_t next_id = 0;
  if (!next->is_number() || !next->to_u64(&next_id)) {
    if (error != nullptr) {
      *error = "service manifest: \"next_id\" must be an unsigned integer";
    }
    return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  jobs_.clear();
  next_id_ = next_id;
  std::vector<uint64_t> interrupted;  // jobs that died mid-quantum
  for (const auto& entry : jobs->items) {
    JobRecord rec;
    std::string rec_error;
    if (!JobRecord::from_value(entry, &rec, &rec_error)) {
      if (error != nullptr) *error = "service manifest: " + rec_error;
      return false;
    }
    // A job the previous process was running when it died goes back to the
    // queue; its checkpoint on disk is the resume point.
    if (rec.state == JobState::kRunning) {
      rec.state = JobState::kQueued;
      interrupted.push_back(rec.id);
    }
    jobs_[rec.id] = Job{std::move(rec)};
  }
  // Interrupted jobs first (they were at the head when the service died),
  // then the saved pop order. Aging ticks restart from zero; cumulative
  // wait_ticks in the records survive.
  for (const uint64_t id : interrupted) {
    queue_.push(id, jobs_[id].rec.spec.priority);
  }
  for (const auto& entry : queue->items) {
    const uint64_t id = entry.as_u64();
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.rec.state != JobState::kQueued ||
        queue_.contains(id)) {
      continue;
    }
    queue_.push(id, it->second.rec.spec.priority);
  }
  save_manifest_locked();
  return true;
}

uint64_t CampaignService::submit(const JobSpec& spec, std::string* error) {
  std::string local_error;
  if (!spec.validate(error != nullptr ? error : &local_error)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  // A leftover checkpoint under this id (job dirs from a root whose
  // manifest was deleted) must not become the new job's resume point.
  std::error_code ec;
  std::filesystem::remove(job_dir(id) + "/checkpoint.json", ec);
  Job job;
  job.rec.id = id;
  job.rec.spec = spec;
  job.rec.state = JobState::kQueued;
  jobs_[id] = std::move(job);
  queue_.push(id, spec.priority);
  save_manifest_locked();
  return id;
}

bool CampaignService::pause(uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    if (error != nullptr) *error = "unknown job " + std::to_string(id);
    return false;
  }
  JobRecord& rec = it->second.rec;
  switch (rec.state) {
    case JobState::kQueued:
      queue_.remove(id);
      rec.state = JobState::kPaused;
      save_manifest_locked();
      return true;
    case JobState::kRunning:
      rec.pause_requested = true;
      save_manifest_locked();
      return true;
    default:
      if (error != nullptr) {
        *error = "cannot pause job in state \"" +
                 std::string(to_string(rec.state)) + "\"";
      }
      return false;
  }
}

bool CampaignService::resume_job(uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    if (error != nullptr) *error = "unknown job " + std::to_string(id);
    return false;
  }
  JobRecord& rec = it->second.rec;
  if (rec.state == JobState::kPaused) {
    rec.state = JobState::kQueued;
    queue_.push(id, rec.spec.priority);
    save_manifest_locked();
    return true;
  }
  if (rec.state == JobState::kRunning && rec.pause_requested) {
    rec.pause_requested = false;  // withdraw an unapplied pause
    save_manifest_locked();
    return true;
  }
  if (error != nullptr) {
    *error = "cannot resume job in state \"" +
             std::string(to_string(rec.state)) + "\"";
  }
  return false;
}

bool CampaignService::cancel(uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    if (error != nullptr) *error = "unknown job " + std::to_string(id);
    return false;
  }
  JobRecord& rec = it->second.rec;
  switch (rec.state) {
    case JobState::kQueued:
    case JobState::kPaused:
      queue_.remove(id);
      rec.state = JobState::kCancelled;
      rec.pause_requested = false;
      save_manifest_locked();
      return true;
    case JobState::kRunning:
      rec.cancel_requested = true;
      save_manifest_locked();
      return true;
    default:
      if (error != nullptr) {
        *error = "cannot cancel job in state \"" +
                 std::string(to_string(rec.state)) + "\"";
      }
      return false;
  }
}

CampaignService::QuantumResult CampaignService::execute_quantum(
    const JobRecord& rec) {
  QuantumResult out;
  const std::string dir = job_dir(rec.id);
  const std::string path = dir + "/checkpoint.json";
  CampaignRun run(rec.spec, cfg_.workers, dir);

  std::string text;
  std::string error;
  const bool have_checkpoint =
      CampaignCheckpoint::read_file(path, &text, &error);
  if (!have_checkpoint && rec.progress > 0) {
    out.failed = true;
    out.error = "checkpoint missing for job with progress " +
                std::to_string(rec.progress) + ": " + error;
    out.progress = rec.progress;
    return out;
  }
  if (have_checkpoint && !run.daemon.resume(text, &error)) {
    out.failed = true;
    out.error = "checkpoint restore failed: " + error;
    out.progress = rec.progress;
    return out;
  }

  const uint64_t start = run.daemon.progress();
  const uint64_t quantum = cfg_.quantum_barriers * rec.spec.checkpoint_every;
  const uint64_t target = std::min(rec.spec.budget, start + quantum);
  run.daemon.run(target, rec.spec.slice);
  out.progress = run.daemon.progress();

  if (out.progress >= rec.spec.budget) {
    out.finished = true;
    out.result = result_json(run, rec.spec);
  } else {
    // Preemption barrier: the explicit checkpoint here reproduces the
    // barrier-reboot the uninterrupted run performs at this same multiple
    // of checkpoint_every inside Daemon::run.
    std::string write_error;
    if (!CampaignCheckpoint::write_file(path, run.daemon.checkpoint_json(),
                                        &write_error)) {
      out.failed = true;
      out.error = "checkpoint write failed: " + write_error;
      return out;
    }
  }
  out.status = run.daemon.status_json();
  out.coverage = run.daemon.coverage_json();
  out.frontier = run.daemon.frontier_json();
  return out;
}

bool CampaignService::run_one_quantum() {
  JobRecord snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto popped = queue_.pop();
    if (!popped.has_value()) return false;
    Job& job = jobs_[popped->job_id];
    job.rec.wait_ticks += popped->waited;
    job.rec.state = JobState::kRunning;
    snapshot = job.rec;
    save_manifest_locked();
  }

  const QuantumResult qr = execute_quantum(snapshot);

  std::lock_guard<std::mutex> lock(mu_);
  Job& job = jobs_[snapshot.id];
  JobRecord& rec = job.rec;
  rec.progress = qr.progress;
  if (!qr.status.empty()) job.status = qr.status;
  if (!qr.coverage.empty()) job.coverage = qr.coverage;
  if (!qr.frontier.empty()) job.frontier = qr.frontier;
  if (qr.failed) {
    rec.state = JobState::kFailed;
    rec.error = qr.error;
  } else if (qr.finished) {
    rec.state = JobState::kDone;
    rec.result = qr.result;
  } else if (rec.cancel_requested) {
    rec.state = JobState::kCancelled;
  } else if (rec.pause_requested) {
    rec.state = JobState::kPaused;
  } else {
    rec.state = JobState::kQueued;
    ++rec.preemptions;
    queue_.push(rec.id, rec.spec.priority);
  }
  rec.pause_requested = false;
  rec.cancel_requested = false;
  save_manifest_locked();
  return true;
}

void CampaignService::run_until_idle() {
  while (run_one_quantum()) {
  }
}

std::optional<JobRecord> CampaignService::job(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.rec;
}

std::vector<JobRecord> CampaignService::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobRecord> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job.rec);
  return out;
}

size_t CampaignService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t CampaignService::scheduler_ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.tick();
}

std::string CampaignService::jobs_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.field("tick", queue_.tick());
  w.field("queue_depth", static_cast<uint64_t>(queue_.size()));
  w.key("queue").begin_array();
  for (const uint64_t id : queue_.in_pop_order()) w.value(id);
  w.end_array();
  w.key("jobs").begin_array();
  for (const auto& [id, job] : jobs_) {
    job.rec.write_json(w, /*include_result=*/false);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string CampaignService::job_json(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return "";
  obs::JsonWriter w;
  it->second.rec.write_json(w);
  return w.take();
}

std::string CampaignService::job_view(uint64_t id,
                                      const std::string& which) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return "";
  if (which == "status") return it->second.status;
  if (which == "coverage") return it->second.coverage;
  if (which == "frontier") return it->second.frontier;
  return "";
}

void CampaignService::request_shutdown() {
  shutdown_.store(true, std::memory_order_release);
}

bool CampaignService::shutdown_requested() const {
  return shutdown_.load(std::memory_order_acquire);
}

std::string CampaignService::run_reference(const JobSpec& spec,
                                           size_t workers,
                                           const std::string& scratch_dir) {
  CampaignRun run(spec, workers, scratch_dir);
  run.daemon.run(spec.budget, spec.slice);
  return result_json(run, spec);
}

void CampaignService::start_server() {
  server_ = std::make_unique<obs::HttpServer>();
  server_->handle("/healthz", [] {
    obs::HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  server_->handle_route("/jobs", [this](const obs::HttpRequest& req) {
    return handle_jobs(req);
  });
  std::string error;
  if (!server_->start(static_cast<uint16_t>(cfg_.serve_port), &error)) {
    server_.reset();
  }
}

obs::HttpResponse CampaignService::handle_jobs(const obs::HttpRequest& req) {
  const std::vector<std::string> seg = path_segments(req.path);
  // /jobs — list (GET) or submit (POST).
  if (seg.size() == 1) {
    if (req.method == "POST") {
      JobSpec spec;
      std::string error;
      if (!JobSpec::from_json(req.body, &spec, &error)) {
        return error_response(400, error);
      }
      const uint64_t id = submit(spec, &error);
      if (id == 0) return error_response(400, error);
      obs::JsonWriter w;
      w.begin_object().field("id", id).field("state", "queued").end_object();
      return json_response(200, w.take());
    }
    return json_response(200, jobs_json());
  }

  uint64_t id = 0;
  if (seg.size() >= 2 && !obs::decode_u64(seg[1], &id)) {
    return error_response(404, "bad job id \"" + seg[1] + "\"");
  }

  // /jobs/<id> — full record.
  if (seg.size() == 2) {
    if (req.method != "GET") {
      return error_response(405, "use GET for job records");
    }
    const std::string body = job_json(id);
    if (body.empty()) {
      return error_response(404, "unknown job " + std::to_string(id));
    }
    return json_response(200, body);
  }

  if (seg.size() == 3) {
    const std::string& action = seg[2];
    // /jobs/<id>/{status,coverage,frontier} — per-job introspection views.
    if (action == "status" || action == "coverage" || action == "frontier") {
      if (req.method != "GET") {
        return error_response(405, "use GET for job views");
      }
      const std::string body = job_view(id, action);
      if (body.empty()) {
        return error_response(404, "unknown job " + std::to_string(id));
      }
      return json_response(200, body);
    }
    // /jobs/<id>/{pause,resume,cancel} — control actions.
    if (action == "pause" || action == "resume" || action == "cancel") {
      if (req.method != "POST") {
        return error_response(405, "use POST for job actions");
      }
      std::string error;
      bool ok = false;
      if (action == "pause") {
        ok = pause(id, &error);
      } else if (action == "resume") {
        ok = resume_job(id, &error);
      } else {
        ok = cancel(id, &error);
      }
      if (!ok) {
        const bool unknown = error.rfind("unknown job", 0) == 0;
        return error_response(unknown ? 404 : 409, error);
      }
      const auto rec = job(id);
      obs::JsonWriter w;
      w.begin_object()
          .field("id", id)
          .field("state", to_string(rec.has_value() ? rec->state
                                                    : JobState::kQueued))
          .end_object();
      return json_response(200, w.take());
    }
  }
  return error_response(404, "no such endpoint under /jobs");
}

}  // namespace df::core
