// Campaign service tests (DESIGN.md §14): the scheduler determinism
// contract — a preempted, re-enqueued, restarted campaign produces results
// bit-identical to an uninterrupted reference run — plus queue properties
// (priority, FIFO, starvation-free aging), crash-safe restart-from-disk,
// corrupted-checkpoint containment, and the HTTP job API.
#include "core/service/service.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/service/job.h"
#include "core/service/queue.h"
#include "obs/json_parse.h"
#include "tests/obs/http_test_util.h"

namespace df::core {
namespace {

// --- JobQueue properties ---------------------------------------------------

TEST(ServiceQueue, HigherPriorityPopsFirstFifoWithinLevel) {
  JobQueue q(/*age_every=*/100);  // aging effectively off for this test
  q.push(1, 0);
  q.push(2, 5);
  q.push(3, 5);
  q.push(4, 9);
  q.push(5, 0);
  std::vector<uint64_t> order;
  while (auto p = q.pop()) order.push_back(p->job_id);
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 2, 3, 1, 5}));
}

TEST(ServiceQueue, FifoWithinPriorityLevelSurvivesAging) {
  // Equal-priority entries age at the same rate: admission order decides
  // forever, no matter how many ticks pass.
  JobQueue q(/*age_every=*/2);
  q.push(10, 3);
  q.push(11, 3);
  q.push(12, 3);
  // Burn ticks by cycling an unrelated job through the queue.
  for (int i = 0; i < 7; ++i) {
    q.push(99, 100);
    ASSERT_EQ(q.pop()->job_id, 99u);
  }
  EXPECT_EQ(q.pop()->job_id, 10u);
  EXPECT_EQ(q.pop()->job_id, 11u);
  EXPECT_EQ(q.pop()->job_id, 12u);
}

TEST(ServiceQueue, AgingIsStarvationFree) {
  // A priority-0 job against an endless stream of priority-10 arrivals:
  // aging must still schedule it within a bounded number of passes
  // (priority gap * age_every, plus slack for the tick the stream burns).
  JobQueue q(/*age_every=*/4);
  q.push(1, 0);
  bool popped_low = false;
  int passes = 0;
  for (; passes < 200 && !popped_low; ++passes) {
    q.push(1000 + static_cast<uint64_t>(passes), 10);
    const auto p = q.pop();
    ASSERT_TRUE(p.has_value());
    popped_low = p->job_id == 1;
  }
  EXPECT_TRUE(popped_low);
  EXPECT_LE(passes, 50);  // 10 levels * 4 ticks/level + slack
}

TEST(ServiceQueue, RemoveAndPopOrderSnapshot) {
  JobQueue q(4);
  q.push(1, 1);
  q.push(2, 2);
  q.push(3, 3);
  EXPECT_EQ(q.in_pop_order(), (std::vector<uint64_t>{3, 2, 1}));
  EXPECT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2));
  EXPECT_FALSE(q.contains(2));
  EXPECT_TRUE(q.contains(3));
  EXPECT_EQ(q.in_pop_order(), (std::vector<uint64_t>{3, 1}));
}

// --- JobSpec validation / serialization ------------------------------------

JobSpec small_spec(uint64_t seed, uint64_t budget = 1280) {
  JobSpec s;
  s.name = "t" + std::to_string(seed);
  s.devices = {"A1", "E"};
  s.seed = seed;
  s.budget = budget;
  s.slice = 64;
  s.sample_every = 128;
  s.checkpoint_every = 256;
  return s;
}

TEST(JobSpec, ValidationRejectsBadSpecs) {
  std::string error;
  JobSpec s = small_spec(1);
  EXPECT_TRUE(s.validate(&error)) << error;

  JobSpec no_devices = s;
  no_devices.devices.clear();
  EXPECT_FALSE(no_devices.validate(&error));
  EXPECT_NE(error.find("devices"), std::string::npos);

  JobSpec unknown = s;
  unknown.devices = {"Z9"};
  EXPECT_FALSE(unknown.validate(&error));
  EXPECT_NE(error.find("unknown device"), std::string::npos);

  JobSpec dup = s;
  dup.devices = {"A1", "A1"};
  EXPECT_FALSE(dup.validate(&error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  JobSpec no_budget = s;
  no_budget.budget = 0;
  EXPECT_FALSE(no_budget.validate(&error));

  // The cadence nesting is load-bearing for scheduler determinism.
  JobSpec misaligned = s;
  misaligned.checkpoint_every = 300;
  EXPECT_FALSE(misaligned.validate(&error));
  EXPECT_NE(error.find("multiple"), std::string::npos);

  JobSpec bad_rate = s;
  bad_rate.fault_rate = 1.5;
  EXPECT_FALSE(bad_rate.validate(&error));
}

TEST(JobSpec, JsonRoundTripAndStrictParse) {
  JobSpec s = small_spec(42);
  s.priority = 3;
  // Not a short decimal: %.6g text would come back as 0.0123457.
  s.fault_rate = 0.0123456789;
  JobSpec back;
  std::string error;
  ASSERT_TRUE(JobSpec::from_json(s.to_json(), &back, &error)) << error;
  EXPECT_EQ(back.fault_rate, s.fault_rate);
  EXPECT_EQ(back.to_json(), s.to_json());

  EXPECT_FALSE(JobSpec::from_json("{\"devices\":[\"A1\"]}", &back, &error));
  EXPECT_NE(error.find("budget"), std::string::npos);
  EXPECT_FALSE(JobSpec::from_json("not json", &back, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JobSpec::from_json(
      "{\"devices\":[\"A1\"],\"budget\":10,\"typo\":1}", &back, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
}

TEST(JobSpec, CountsAreDecodedStrictly) {
  JobSpec back;
  std::string error;
  // A sign, a fraction, an exponent, an overflow or a string is an error
  // naming the field, not a wrapped or truncated count.
  for (const char* budget : {"-1", "1.9", "1e3", "18446744073709551616",
                             "\"10\""}) {
    const std::string doc =
        std::string("{\"devices\":[\"A1\"],\"budget\":") + budget + "}";
    EXPECT_FALSE(JobSpec::from_json(doc, &back, &error)) << doc;
    EXPECT_NE(error.find("\"budget\""), std::string::npos) << error;
  }
  EXPECT_FALSE(JobSpec::from_json(
      "{\"devices\":[\"A1\"],\"budget\":10,\"priority\":-10}", &back, &error));
  EXPECT_NE(error.find("\"priority\""), std::string::npos) << error;
  ASSERT_TRUE(JobSpec::from_json(
      "{\"devices\":[\"A1\"],\"budget\":18446744073709551615}", &back, &error))
      << error;
  EXPECT_EQ(back.budget, UINT64_MAX);

  // Manifest records decode their counts the same way.
  const std::string spec = small_spec(1).to_json();
  for (const std::string field : {"id", "progress", "preemptions",
                                   "wait_ticks"}) {
    std::string rec_doc = "{\"state\":\"queued\",\"spec\":" + spec;
    for (const char* count : {"id", "progress", "preemptions", "wait_ticks"}) {
      rec_doc += std::string(",\"") + count + "\":" +
                 (field == count ? "-5" : "1");
    }
    rec_doc += "}";
    const auto doc = obs::json_parse(rec_doc, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    JobRecord rec;
    EXPECT_FALSE(JobRecord::from_value(*doc, &rec, &error)) << field;
    EXPECT_NE(error.find("\"" + field + "\""), std::string::npos) << error;
  }

  // Flags, the error text and the result document are kind-checked too: a
  // number is not a bool, and a mistyped error or result is not dropped.
  for (const auto& [field, bad] :
       {std::pair{"pause_requested", "1"}, std::pair{"cancel_requested", "0"},
        std::pair{"error", "7"}, std::pair{"result", "[]"},
        std::pair{"result", "\"done\""}}) {
    const std::string rec_doc = "{\"id\":1,\"state\":\"queued\",\"spec\":" +
                                spec + ",\"" + field + "\":" + bad + "}";
    const auto doc = obs::json_parse(rec_doc, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    JobRecord rec;
    EXPECT_FALSE(JobRecord::from_value(*doc, &rec, &error)) << rec_doc;
    EXPECT_NE(error.find(std::string("job record: \"") + field + "\" must be"),
              std::string::npos)
        << error;
  }
}

// --- scheduler determinism -------------------------------------------------

std::string unique_dir(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "df_service_" + tag + "_" +
         std::to_string(counter++);
}

// Two-job workload: one budget on the checkpoint grid, one off it (the
// final quantum is a partial one), distinct seeds and priorities.
void expect_preempted_matches(size_t workers, uint64_t quantum_barriers,
                              bool reverse_admission) {
  const std::string tag = std::to_string(workers) + "_" +
                          std::to_string(quantum_barriers) + "_" +
                          std::to_string(reverse_admission);
  JobSpec a = small_spec(11, 1280);
  a.priority = 1;
  JobSpec b = small_spec(23, 1100);  // not a multiple of checkpoint_every

  const std::string want_a =
      CampaignService::run_reference(a, workers, unique_dir("refa" + tag));
  const std::string want_b =
      CampaignService::run_reference(b, workers, unique_dir("refb" + tag));

  ServiceConfig cfg;
  cfg.root_dir = unique_dir("svc" + tag);
  cfg.workers = workers;
  cfg.quantum_barriers = quantum_barriers;
  cfg.serve_port = -1;
  CampaignService svc(cfg);
  const uint64_t id_first =
      svc.submit(reverse_admission ? b : a, nullptr);
  const uint64_t id_second =
      svc.submit(reverse_admission ? a : b, nullptr);
  ASSERT_NE(id_first, 0u);
  ASSERT_NE(id_second, 0u);
  svc.run_until_idle();

  const uint64_t id_a = reverse_admission ? id_second : id_first;
  const uint64_t id_b = reverse_admission ? id_first : id_second;
  const auto rec_a = svc.job(id_a);
  const auto rec_b = svc.job(id_b);
  ASSERT_TRUE(rec_a.has_value());
  ASSERT_TRUE(rec_b.has_value());
  EXPECT_EQ(rec_a->state, JobState::kDone);
  EXPECT_EQ(rec_b->state, JobState::kDone);
  EXPECT_EQ(rec_a->progress, a.budget);
  EXPECT_EQ(rec_b->progress, b.budget);
  // The contract itself: byte-identical result documents.
  EXPECT_EQ(rec_a->result, want_a);
  EXPECT_EQ(rec_b->result, want_b);
  // And the jobs really were preempted, not run in one piece:
  // ceil(budget / quantum) turns minus the final one.
  EXPECT_EQ(rec_a->preemptions,
            (a.budget - 1) / (quantum_barriers * a.checkpoint_every));
  EXPECT_EQ(rec_b->preemptions,
            (b.budget - 1) / (quantum_barriers * b.checkpoint_every));
}

TEST(Service, PreemptedRunMatchesUninterruptedWorkers1) {
  expect_preempted_matches(/*workers=*/1, /*quantum_barriers=*/1, false);
}

TEST(Service, PreemptedRunMatchesUninterruptedWorkers2) {
  expect_preempted_matches(/*workers=*/2, /*quantum_barriers=*/1, false);
}

TEST(Service, PreemptedRunMatchesUninterruptedWorkers4) {
  expect_preempted_matches(/*workers=*/4, /*quantum_barriers=*/1, false);
}

TEST(Service, PreemptedRunMatchesUninterruptedWiderQuantum) {
  expect_preempted_matches(/*workers=*/2, /*quantum_barriers=*/2, false);
}

TEST(Service, PreemptedRunMatchesUninterruptedReversedAdmission) {
  expect_preempted_matches(/*workers=*/4, /*quantum_barriers=*/1, true);
}

TEST(Service, PauseResumeKeepsDeterminism) {
  const JobSpec a = small_spec(31, 1024);
  const std::string want =
      CampaignService::run_reference(a, 2, unique_dir("pause_ref"));

  ServiceConfig cfg;
  cfg.root_dir = unique_dir("pause_svc");
  cfg.workers = 2;
  CampaignService svc(cfg);
  const uint64_t id = svc.submit(a);
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(svc.run_one_quantum());  // first quantum, job re-enqueued
  std::string error;
  ASSERT_TRUE(svc.pause(id, &error)) << error;
  EXPECT_EQ(svc.job(id)->state, JobState::kPaused);
  svc.run_until_idle();  // nothing runnable while paused
  EXPECT_EQ(svc.job(id)->state, JobState::kPaused);
  EXPECT_FALSE(svc.resume_job(999, &error));
  ASSERT_TRUE(svc.resume_job(id, &error)) << error;
  svc.run_until_idle();
  const auto rec = svc.job(id);
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_EQ(rec->result, want);
}

TEST(Service, CancelDropsQueuedAndPausedJobs) {
  ServiceConfig cfg;
  cfg.root_dir = unique_dir("cancel");
  CampaignService svc(cfg);
  const uint64_t queued = svc.submit(small_spec(1));
  const uint64_t paused = svc.submit(small_spec(2));
  std::string error;
  ASSERT_TRUE(svc.pause(paused, &error));
  ASSERT_TRUE(svc.cancel(queued, &error));
  ASSERT_TRUE(svc.cancel(paused, &error));
  EXPECT_EQ(svc.job(queued)->state, JobState::kCancelled);
  EXPECT_EQ(svc.job(paused)->state, JobState::kCancelled);
  // Terminal jobs reject further transitions with a descriptive error.
  EXPECT_FALSE(svc.cancel(queued, &error));
  EXPECT_NE(error.find("cancelled"), std::string::npos);
  EXPECT_FALSE(svc.run_one_quantum());  // queue is empty
}

// --- crash-safe restart ----------------------------------------------------

TEST(Service, RestartFromDiskResumesQueuedAndRunningJobs) {
  const std::string root = unique_dir("restart");
  const JobSpec a = small_spec(51, 1280);
  const JobSpec b = small_spec(52, 1100);
  const std::string want_a =
      CampaignService::run_reference(a, 1, unique_dir("restart_refa"));
  const std::string want_b =
      CampaignService::run_reference(b, 1, unique_dir("restart_refb"));

  ServiceConfig cfg;
  cfg.root_dir = root;
  cfg.workers = 1;
  uint64_t id_a = 0;
  uint64_t id_b = 0;
  {
    CampaignService svc(cfg);
    id_a = svc.submit(a);
    id_b = svc.submit(b);
    ASSERT_TRUE(svc.run_one_quantum());  // a: one quantum, re-enqueued
    ASSERT_TRUE(svc.run_one_quantum());  // b: one quantum, re-enqueued
    // Service dies here; the manifest and both checkpoints are on disk.
  }

  // Simulate death mid-quantum: rewrite job a's manifest state to
  // "running", as the manifest looks between pop and quantum end.
  {
    std::ifstream in(root + "/service.json");
    std::string manifest((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const std::string find = "\"id\":" + std::to_string(id_a) +
                             ",\"state\":\"queued\"";
    const size_t pos = manifest.find(find);
    ASSERT_NE(pos, std::string::npos);
    manifest.replace(pos, find.size(),
                     "\"id\":" + std::to_string(id_a) +
                         ",\"state\":\"running\"");
    std::ofstream out(root + "/service.json", std::ios::trunc);
    out << manifest;
  }

  CampaignService svc(cfg);
  std::string error;
  ASSERT_TRUE(svc.boot(&error)) << error;
  // The interrupted job came back queued, ahead of the rest.
  ASSERT_TRUE(svc.job(id_a).has_value());
  EXPECT_EQ(svc.job(id_a)->state, JobState::kQueued);
  EXPECT_EQ(svc.job(id_b)->state, JobState::kQueued);
  EXPECT_EQ(svc.queue_depth(), 2u);
  svc.run_until_idle();
  EXPECT_EQ(svc.job(id_a)->state, JobState::kDone);
  EXPECT_EQ(svc.job(id_b)->state, JobState::kDone);
  EXPECT_EQ(svc.job(id_a)->result, want_a);
  EXPECT_EQ(svc.job(id_b)->result, want_b);
}

// --- corrupted checkpoints -------------------------------------------------

// Checkpoint sabotage must fail the job with a descriptive error and leave
// the service serving: never a crash, never a wedged queue.
TEST(Service, CorruptCheckpointFailsJobNotService) {
  ServiceConfig cfg;
  cfg.root_dir = unique_dir("corrupt");
  cfg.workers = 1;
  CampaignService svc(cfg);

  JobSpec spec;
  spec.devices = {"A1"};
  spec.budget = 2048;
  spec.slice = 64;
  spec.sample_every = 256;
  spec.checkpoint_every = 1024;
  std::vector<uint64_t> ids;
  for (uint64_t seed : {61, 62, 63}) {
    JobSpec s = spec;
    s.seed = seed;
    const uint64_t id = svc.submit(s);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  // One quantum each: every job now has a checkpoint at execution 1024.
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_TRUE(svc.run_one_quantum());

  auto checkpoint_path = [&](uint64_t id) {
    return cfg.root_dir + "/job_" + std::to_string(id) + "/checkpoint.json";
  };
  auto rewrite = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  auto read = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  // Job 1: truncated JSON.
  const std::string doc1 = read(checkpoint_path(ids[0]));
  ASSERT_FALSE(doc1.empty());
  rewrite(checkpoint_path(ids[0]), doc1.substr(0, doc1.size() / 2));

  // Job 2: unknown checkpoint version.
  std::string doc2 = read(checkpoint_path(ids[1]));
  const size_t vpos = doc2.find("\"version\":4");
  ASSERT_NE(vpos, std::string::npos);
  doc2.replace(vpos, strlen("\"version\":4"), "\"version\":999");
  rewrite(checkpoint_path(ids[1]), doc2);

  // Job 3: snapshot images dropped while the pool still references them.
  std::string doc3 = read(checkpoint_path(ids[2]));
  const size_t ipos = doc3.find("\"images\":[\"");
  ASSERT_NE(ipos, std::string::npos) << "no live snapshots at checkpoint";
  const size_t iend = doc3.find(']', ipos);
  ASSERT_NE(iend, std::string::npos);
  doc3.replace(ipos, iend - ipos + 1, "\"images\":[]");
  rewrite(checkpoint_path(ids[2]), doc3);

  svc.run_until_idle();
  const auto j1 = svc.job(ids[0]);
  const auto j2 = svc.job(ids[1]);
  const auto j3 = svc.job(ids[2]);
  EXPECT_EQ(j1->state, JobState::kFailed);
  EXPECT_NE(j1->error.find("checkpoint restore failed"), std::string::npos)
      << j1->error;
  EXPECT_EQ(j2->state, JobState::kFailed);
  EXPECT_NE(j2->error.find("version"), std::string::npos) << j2->error;
  EXPECT_EQ(j3->state, JobState::kFailed);
  EXPECT_NE(j3->error.find("missing snapshot"), std::string::npos)
      << j3->error;

  // The service shrugs it off: a fresh job still runs to completion.
  const uint64_t healthy = svc.submit(small_spec(64, 512));
  ASSERT_NE(healthy, 0u);
  svc.run_until_idle();
  EXPECT_EQ(svc.job(healthy)->state, JobState::kDone);
}

// A checkpoint deleted out from under a mid-flight job is also a failed
// job, not a silent restart from zero.
TEST(Service, MissingCheckpointFailsJob) {
  ServiceConfig cfg;
  cfg.root_dir = unique_dir("missing");
  CampaignService svc(cfg);
  const uint64_t id = svc.submit(small_spec(71, 1024));
  ASSERT_TRUE(svc.run_one_quantum());
  std::remove((cfg.root_dir + "/job_" + std::to_string(id) +
               "/checkpoint.json")
                  .c_str());
  svc.run_until_idle();
  const auto rec = svc.job(id);
  EXPECT_EQ(rec->state, JobState::kFailed);
  EXPECT_NE(rec->error.find("checkpoint missing"), std::string::npos)
      << rec->error;
}

// --- HTTP job API ----------------------------------------------------------

TEST(Service, JobApiEndToEnd) {
  ServiceConfig cfg;
  cfg.root_dir = unique_dir("api");
  cfg.serve_port = 0;
  CampaignService svc(cfg);
  ASSERT_NE(svc.server(), nullptr);
  const uint16_t port = static_cast<uint16_t>(svc.serve_port());

  EXPECT_EQ(df::test::http_get(port, "/healthz").status, 200);

  // Submit over HTTP.
  JobSpec spec = small_spec(81, 512);
  auto res = df::test::http_post(port, "/jobs", spec.to_json());
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, 200) << res.body;
  std::string error;
  const auto doc = obs::json_parse(res.body, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const uint64_t id = doc->find("id")->as_u64();
  ASSERT_NE(id, 0u);

  // Bad specs get a 400 with the validation message.
  res = df::test::http_post(port, "/jobs", "{\"devices\":[\"Z9\"]}");
  EXPECT_EQ(res.status, 400);
  EXPECT_NE(res.body.find("unknown device"), std::string::npos);

  // Listing and record views.
  res = df::test::http_get(port, "/jobs");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("\"queue_depth\":1"), std::string::npos);
  res = df::test::http_get(port, "/jobs/" + std::to_string(id));
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("\"state\":\"queued\""), std::string::npos);
  EXPECT_EQ(df::test::http_get(port, "/jobs/12345").status, 404);
  // An id past 2^64-1 is malformed, not a saturated lookup.
  res = df::test::http_get(port, "/jobs/18446744073709551616");
  EXPECT_EQ(res.status, 404);
  EXPECT_NE(res.body.find("bad job id"), std::string::npos) << res.body;
  EXPECT_EQ(res.body.find("unknown job"), std::string::npos) << res.body;

  // Control actions over HTTP; invalid transitions are 409.
  const std::string base = "/jobs/" + std::to_string(id);
  EXPECT_EQ(df::test::http_post(port, base + "/pause", "").status, 200);
  EXPECT_EQ(svc.job(id)->state, JobState::kPaused);
  EXPECT_EQ(df::test::http_post(port, base + "/pause", "").status, 409);
  EXPECT_EQ(df::test::http_post(port, base + "/resume", "").status, 200);
  EXPECT_EQ(svc.job(id)->state, JobState::kQueued);
  EXPECT_EQ(df::test::http_post(port, "/jobs/999/cancel", "").status, 404);

  // Views are empty objects before the first quantum, real documents after.
  res = df::test::http_get(port, base + "/status");
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(res.body, "{}");
  svc.run_until_idle();
  EXPECT_EQ(svc.job(id)->state, JobState::kDone);
  res = df::test::http_get(port, base + "/status");
  EXPECT_NE(res.body.find("\"campaign\""), std::string::npos);
  res = df::test::http_get(port, base + "/coverage");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body, "{}");
  res = df::test::http_get(port, base + "/frontier");
  EXPECT_EQ(res.status, 200);
  res = df::test::http_get(port, base);
  EXPECT_NE(res.body.find("\"result\""), std::string::npos);

  // Method discipline on the job API.
  EXPECT_EQ(df::test::http_post(port, base, "").status, 405);
  EXPECT_EQ(df::test::http_get(port, base + "/pause").status, 405);
  EXPECT_EQ(df::test::http_get(port, "/jobs/1/unknown").status, 404);
}

}  // namespace
}  // namespace df::core
