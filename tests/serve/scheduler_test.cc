#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace vadasa::serve {
namespace {

using core::Figure5Microdata;

api::Session Fig5Session(int k = 2) {
  api::SessionOptions options;
  options.k = k;
  auto session = api::Session::FromTable(Figure5Microdata(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

JobRequest RiskJob(api::Session session) {
  JobRequest request;
  request.session = std::move(session);
  request.action = JobAction::kRisk;
  return request;
}

JobRequest AnonJob(api::Session session) {
  JobRequest request;
  request.session = std::move(session);
  request.action = JobAction::kAnonymize;
  return request;
}

TEST(JobSchedulerTest, RunsRiskAndAnonymizeJobs) {
  JobScheduler scheduler;
  auto risk_id = scheduler.Submit(RiskJob(Fig5Session()));
  auto anon_id = scheduler.Submit(AnonJob(Fig5Session()));
  ASSERT_TRUE(risk_id.ok());
  ASSERT_TRUE(anon_id.ok());

  auto risk = scheduler.Wait(*risk_id);
  ASSERT_TRUE(risk.ok());
  EXPECT_EQ(risk->state, JobState::kDone);
  EXPECT_TRUE(risk->status.ok());
  auto direct = Fig5Session().Risk();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(risk->risk.tuple_risks, direct->tuple_risks);

  auto anon = scheduler.Wait(*anon_id);
  ASSERT_TRUE(anon.ok());
  EXPECT_EQ(anon->state, JobState::kDone);
  auto direct_anon = Fig5Session().Anonymize();
  ASSERT_TRUE(direct_anon.ok());
  EXPECT_EQ(WriteCsv(anon->anonymize.table.ToCsv()),
            WriteCsv(direct_anon->table.ToCsv()));
}

TEST(JobSchedulerTest, SaturationRejectsInsteadOfBlocking) {
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 2;
  options.start_paused = true;  // Nothing runs: the queue stays full.
  JobScheduler scheduler(options);

  ASSERT_TRUE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  ASSERT_TRUE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  const auto before = std::chrono::steady_clock::now();
  auto rejected = scheduler.Submit(RiskJob(Fig5Session()));
  const auto elapsed = std::chrono::steady_clock::now() - before;
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  // Rejection is immediate — admission control never blocks the caller.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  // The admitted jobs still complete once execution starts.
  scheduler.Resume();
  scheduler.Shutdown(/*drain=*/true);
  for (uint64_t id : {uint64_t{1}, uint64_t{2}}) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone);
  }
}

TEST(JobSchedulerTest, ShutdownDrainsQueuedJobs) {
  SchedulerOptions options;
  options.workers = 2;
  options.start_paused = true;
  JobScheduler scheduler(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = scheduler.Submit(AnonJob(Fig5Session()));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Drain: queued jobs execute to completion even though they never started
  // before shutdown was requested.
  scheduler.Shutdown(/*drain=*/true);
  for (uint64_t id : ids) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone) << "job " << id;
    EXPECT_GT(result->anonymize.table.num_rows(), 0u);
  }
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

TEST(JobSchedulerTest, ShutdownWithoutDrainCancelsQueuedJobs) {
  SchedulerOptions options;
  options.start_paused = true;
  JobScheduler scheduler(options);
  auto id = scheduler.Submit(RiskJob(Fig5Session()));
  ASSERT_TRUE(id.ok());
  scheduler.Shutdown(/*drain=*/false);
  auto result = scheduler.Peek(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kCancelled);
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
}

TEST(JobSchedulerTest, SubmitAfterShutdownIsRejected) {
  JobScheduler scheduler;
  scheduler.Shutdown();
  auto id = scheduler.Submit(RiskJob(Fig5Session()));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
}

TEST(JobSchedulerTest, CancelQueuedJob) {
  SchedulerOptions options;
  options.start_paused = true;
  JobScheduler scheduler(options);
  auto id = scheduler.Submit(RiskJob(Fig5Session()));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.Cancel(*id).ok());
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  scheduler.Resume();
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kCancelled);
}

TEST(JobSchedulerTest, QueuedDeadlineExpires) {
  SchedulerOptions options;
  options.start_paused = true;
  JobScheduler scheduler(options);
  JobOptions job_options;
  job_options.timeout_seconds = 0.005;
  auto id = scheduler.Submit(RiskJob(Fig5Session()), job_options);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  scheduler.Resume();
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kExpired);
  EXPECT_EQ(result->status.code(), StatusCode::kDeadlineExceeded);
}

TEST(JobSchedulerTest, PriorityRunsFirstOnASingleWorker) {
  SchedulerOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);
  JobOptions relaxed;
  relaxed.priority = 0;
  auto low = scheduler.Submit(RiskJob(Fig5Session()), relaxed);
  JobOptions urgent;
  urgent.priority = 5;
  auto high = scheduler.Submit(RiskJob(Fig5Session()), urgent);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  scheduler.Resume();
  scheduler.Shutdown(/*drain=*/true);
  auto low_result = scheduler.Peek(*low);
  auto high_result = scheduler.Peek(*high);
  ASSERT_TRUE(low_result.ok());
  ASSERT_TRUE(high_result.ok());
  // One worker: the high-priority job runs first, so the low one's queue
  // wait includes the high one's run time.
  EXPECT_GE(low_result->queue_seconds, high_result->queue_seconds);
  EXPECT_EQ(low_result->state, JobState::kDone);
  EXPECT_EQ(high_result->state, JobState::kDone);
}

TEST(JobSchedulerTest, UnknownIdsReportNotFound) {
  JobScheduler scheduler;
  EXPECT_EQ(scheduler.State(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Peek(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Wait(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Cancel(42).code(), StatusCode::kNotFound);
}

TEST(JobSchedulerTest, ConcurrentJobsMatchSequentialFacadeCalls) {
  const int kJobs = 8;
  // Sequential reference.
  std::vector<std::string> expected_csv;
  std::vector<std::vector<double>> expected_risks;
  for (int i = 0; i < kJobs; ++i) {
    auto anon = Fig5Session().Anonymize();
    ASSERT_TRUE(anon.ok());
    expected_csv.push_back(WriteCsv(anon->table.ToCsv()));
    auto risk = Fig5Session().Risk();
    ASSERT_TRUE(risk.ok());
    expected_risks.push_back(risk->tuple_risks);
  }
  SchedulerOptions options;
  options.workers = 4;
  JobScheduler scheduler(options);
  std::vector<uint64_t> anon_ids, risk_ids;
  for (int i = 0; i < kJobs; ++i) {
    auto a = scheduler.Submit(AnonJob(Fig5Session()));
    auto r = scheduler.Submit(RiskJob(Fig5Session()));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(r.ok());
    anon_ids.push_back(*a);
    risk_ids.push_back(*r);
  }
  for (int i = 0; i < kJobs; ++i) {
    auto a = scheduler.Wait(anon_ids[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a->state, JobState::kDone) << a->status.ToString();
    EXPECT_EQ(WriteCsv(a->anonymize.table.ToCsv()), expected_csv[i]);
    auto r = scheduler.Wait(risk_ids[i]);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->state, JobState::kDone);
    EXPECT_EQ(r->risk.tuple_risks, expected_risks[i]);
  }
}

TEST(JobSchedulerTest, WarmupCoalescesAcrossJobsOnSharedDataset) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* warmups = registry.counter("serve.batch.warmups");
  obs::Counter* hits = registry.counter("serve.batch.coalesce_hits");
  const uint64_t warmups_before = warmups->value();
  const uint64_t hits_before = hits->value();

  // Several sessions over one dataset version with the same semantics: the
  // version builds its group statistics once, every other job adopts them.
  DatasetRegistry datasets;
  ASSERT_TRUE(datasets.Register("fig5", Figure5Microdata()).ok());
  auto version = datasets.Load("fig5");
  ASSERT_TRUE(version.ok());
  SchedulerOptions options;
  options.workers = 2;
  options.start_paused = true;
  JobScheduler scheduler(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto session = datasets.OpenSession("fig5", {});
    ASSERT_TRUE(session.ok());
    JobRequest request = RiskJob(std::move(*session));
    request.dataset = *version;
    auto id = scheduler.Submit(std::move(request));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  scheduler.Resume();
  scheduler.Shutdown(/*drain=*/true);
  for (uint64_t id : ids) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone);
  }
  EXPECT_EQ(warmups->value() - warmups_before, 1u);
  EXPECT_EQ(hits->value() - hits_before, 5u);
}

/// A risk job over the registry's current version of `name`.
JobRequest VersionRiskJob(DatasetRegistry* datasets, const std::string& name) {
  auto version = datasets->Load(name);
  EXPECT_TRUE(version.ok()) << version.status().ToString();
  auto session = api::Session::FromShared((*version)->table,
                                          (*version)->dictionary, {});
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  JobRequest request = RiskJob(std::move(*session));
  request.dataset = *version;
  return request;
}

std::vector<double> ServedRisks(JobScheduler* scheduler, JobRequest request) {
  auto id = scheduler->Submit(std::move(request));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return {};
  auto result = scheduler->Wait(*id);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return {};
  EXPECT_EQ(result->state, JobState::kDone) << result->status.ToString();
  return result->risk.tuple_risks;
}

TEST(JobSchedulerTest, ReplacedVersionIsFreedWithItsLastJob) {
  obs::Counter* warmups =
      obs::MetricsRegistry::Global().counter("serve.batch.warmups");
  const uint64_t warmups_before = warmups->value();
  DatasetRegistry datasets;
  ASSERT_TRUE(datasets.Register("feed", Figure5Microdata()).ok());
  // One worker: once a later job has run, every earlier job has also
  // dropped its hold on its dataset version.
  SchedulerOptions options;
  options.workers = 1;
  JobScheduler scheduler(options);
  Protocol protocol(&datasets, &scheduler);

  // Version 1 is warmed by a submit through the protocol.
  bool shutdown = false;
  auto ack = Json::Parse(protocol.Handle(
      R"({"op":"submit","dataset":"feed","action":"risk"})", &shutdown));
  ASSERT_TRUE(ack.ok() && ack->GetBool("ok", false));
  auto done = Json::Parse(protocol.Handle(
      R"({"op":"result","id":)" + std::to_string(ack->GetInt("id", 0)) + "}",
      &shutdown));
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->GetString("state", ""), "done");

  std::weak_ptr<const core::MicrodataTable> v1_table;
  std::weak_ptr<const core::GroupStats> v1_stats;
  size_t num_columns = 0;
  {
    auto v1 = datasets.Load("feed");
    ASSERT_TRUE(v1.ok());
    v1_table = (*v1)->table;
    num_columns = (*v1)->table->num_columns();
    auto index = (*v1)->warm.Ready(core::NullSemantics::kMaybeMatch);
    ASSERT_NE(index, nullptr);
    v1_stats = std::shared_ptr<const core::GroupStats>(index, &index->Stats());
  }
  // A job over version 1 that is still pending when version 2 lands.
  JobRequest late = VersionRiskJob(&datasets, "feed");
  core::DeltaBatchBuilder append(num_columns);
  append.Append(core::Figure5Microdata().row(0));
  auto batch = append.Build();
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(datasets.ApplyDelta("feed", *batch).ok());
  EXPECT_FALSE(v1_table.expired());
  ServedRisks(&scheduler, std::move(late));
  const std::vector<double> v2_risks =
      ServedRisks(&scheduler, VersionRiskJob(&datasets, "feed"));
  EXPECT_TRUE(v1_table.expired());
  EXPECT_TRUE(v1_stats.expired());

  // An update-only delta keeps the row count; version 3 must still be scored
  // with its own statistics, never with an earlier version's.
  core::MicrodataTable edited = *datasets.Load("feed").value()->table;
  const size_t qi = edited.QuasiIdentifierColumns().front();
  std::vector<Value> row = edited.row(1);
  row[qi] = Value::String("only-in-version-3");
  core::DeltaBatchBuilder update(num_columns);
  update.Update(1, row);
  auto update_batch = update.Build();
  ASSERT_TRUE(update_batch.ok());
  auto v3 = datasets.ApplyDelta("feed", *update_batch);
  ASSERT_TRUE(v3.ok());
  ASSERT_EQ((*v3)->table->num_rows(), edited.num_rows());
  edited.set_cell(1, qi, Value::String("only-in-version-3"));
  auto cold = api::Session::FromTable(edited, {});
  ASSERT_TRUE(cold.ok());
  auto want = cold->Risk();
  ASSERT_TRUE(want.ok());
  const std::vector<double> v3_risks =
      ServedRisks(&scheduler, VersionRiskJob(&datasets, "feed"));
  EXPECT_EQ(v3_risks, want->tuple_risks);
  EXPECT_NE(v3_risks, v2_risks);
  // Only version 1 was built cold; versions 2 and 3 inherited its state.
  EXPECT_EQ(warmups->value() - warmups_before, 1u);
}

TEST(JobSchedulerTest, MetricsCountOutcomes) {
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t completed_before =
      registry.counter("serve.completed")->value();
  const uint64_t rejected_before = registry.counter("serve.rejected")->value();
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);
  ASSERT_TRUE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  ASSERT_FALSE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  scheduler.Resume();
  scheduler.Shutdown(/*drain=*/true);
  EXPECT_EQ(registry.counter("serve.completed")->value() - completed_before, 1u);
  EXPECT_EQ(registry.counter("serve.rejected")->value() - rejected_before, 1u);
}

}  // namespace
}  // namespace vadasa::serve
