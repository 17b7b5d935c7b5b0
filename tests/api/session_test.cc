#include "api/vadasa.h"

#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "core/report.h"
#include "obs/metrics.h"

namespace vadasa::api {
namespace {

using core::Figure5Microdata;
using core::MicrodataTable;

TEST(SessionOptionsTest, ValidationCatchesBadPolicies) {
  {
    SessionOptions options;
    options.risk_measure = "nonsense";
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  {
    SessionOptions options;
    options.k = 0;
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  {
    SessionOptions options;
    options.threshold = 1.5;
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  {
    SessionOptions options;
    options.posterior_draws = -1;
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  EXPECT_TRUE(ValidateSessionOptions(SessionOptions{}).ok());
}

TEST(SessionOptionsTest, GroupKeyTracksNullSemantics) {
  SessionOptions options;
  const std::string maybe = options.GroupKey();
  options.standard_nulls = true;
  EXPECT_NE(maybe, options.GroupKey());
}

TEST(SessionTest, EmptySessionFailsGracefully) {
  Session session;
  EXPECT_EQ(session.Risk().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Anonymize().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Warm().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, FromTableRejectsInvalidOptions) {
  SessionOptions options;
  options.risk_measure = "nonsense";
  EXPECT_FALSE(Session::FromTable(Figure5Microdata(), options).ok());
}

TEST(SessionTest, RiskMatchesDirectCorePath) {
  SessionOptions options;
  options.k = 2;
  auto session = Session::FromTable(Figure5Microdata(), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Risk();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const MicrodataTable table = Figure5Microdata();
  auto measure = core::MakeRiskMeasure("k-anonymity");
  ASSERT_TRUE(measure.ok());
  core::RiskContext ctx;
  ctx.k = 2;
  auto direct = (*measure)->ComputeRisks(table, ctx);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(report->tuple_risks.size(), direct->size());
  for (size_t r = 0; r < direct->size(); ++r) {
    EXPECT_EQ(report->tuple_risks[r], (*direct)[r]) << "row " << r;
  }
  // Risky rows are exactly the over-threshold ones, with explanations.
  for (const RiskyTuple& risky : report->risky) {
    EXPECT_GT(risky.risk, options.threshold);
    EXPECT_FALSE(risky.explanation.empty());
  }
}

TEST(SessionTest, AnonymizeMatchesDirectCorePath) {
  SessionOptions options;
  options.k = 2;
  auto session = Session::FromTable(Figure5Microdata(), options);
  ASSERT_TRUE(session.ok());
  auto response = session->Anonymize();
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  MicrodataTable direct = Figure5Microdata();
  auto measure = core::MakeRiskMeasure("k-anonymity");
  ASSERT_TRUE(measure.ok());
  core::LocalSuppression anonymizer;
  core::CycleOptions cycle_options;
  cycle_options.threshold = 0.5;
  cycle_options.risk.k = 2;
  auto audit =
      core::RunAuditedRelease(&direct, **measure, &anonymizer, cycle_options);
  ASSERT_TRUE(audit.ok());

  EXPECT_EQ(WriteCsv(response->table.ToCsv()), WriteCsv(direct.ToCsv()));
  EXPECT_FALSE(response->ToText().empty());
}

TEST(SessionTest, AnonymizeDoesNotMutateTheSession) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  const std::string before = WriteCsv(session->table().ToCsv());
  ASSERT_TRUE(session->Anonymize().ok());
  EXPECT_EQ(WriteCsv(session->table().ToCsv()), before);
}

TEST(SessionTest, WarmDoesNotChangeRiskResults) {
  auto cold = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(cold.ok());
  auto warm = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Warm().ok());
  ASSERT_NE(warm->warm_stats(), nullptr);

  auto cold_report = cold->Risk(/*quantile=*/0.9);
  auto warm_report = warm->Risk(/*quantile=*/0.9);
  ASSERT_TRUE(cold_report.ok());
  ASSERT_TRUE(warm_report.ok());
  ASSERT_EQ(cold_report->tuple_risks.size(), warm_report->tuple_risks.size());
  for (size_t r = 0; r < cold_report->tuple_risks.size(); ++r) {
    EXPECT_EQ(cold_report->tuple_risks[r], warm_report->tuple_risks[r]);
  }
  EXPECT_EQ(cold_report->inferred_threshold, warm_report->inferred_threshold);
  EXPECT_EQ(cold_report->global.expected_reidentifications,
            warm_report->global.expected_reidentifications);
}

TEST(SessionTest, WarmDoesNotChangeAnonymizeResults) {
  auto cold = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(cold.ok());
  auto warm = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Warm().ok());
  auto cold_response = cold->Anonymize();
  auto warm_response = warm->Anonymize();
  ASSERT_TRUE(cold_response.ok());
  ASSERT_TRUE(warm_response.ok());
  EXPECT_EQ(WriteCsv(warm_response->table.ToCsv()),
            WriteCsv(cold_response->table.ToCsv()));
  EXPECT_EQ(warm_response->ToText(), cold_response->ToText());
}

TEST(SessionTest, PreCancelledTokenShortCircuitsAnonymize) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  CancelToken token;
  token.Cancel();
  AnonymizeRequest request;
  request.cancel = &token;
  EXPECT_EQ(session->Anonymize(request).status().code(),
            StatusCode::kCancelled);
}

TEST(SessionTest, ExpiredDeadlineShortCircuitsAnonymize) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  AnonymizeRequest request;
  request.cancel = &token;
  EXPECT_EQ(session->Anonymize(request).status().code(),
            StatusCode::kDeadlineExceeded);
}

core::DeltaBatch Fig5Delta(const MicrodataTable& t) {
  core::DeltaBatchBuilder builder(t.num_columns());
  std::vector<Value> updated = t.row(1);
  updated[2] = Value::Null(77);
  builder.Update(1, std::move(updated));
  builder.Delete(4);
  builder.Append(t.row(0));
  auto batch = builder.Build();
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return *batch;
}

TEST(SessionTest, ApplyReturnsImmutableSibling) {
  auto parent = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(parent.ok());
  const std::string before = WriteCsv(parent->table().ToCsv());
  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(WriteCsv(parent->table().ToCsv()), before)
      << "Apply never mutates its session";
  EXPECT_EQ(child->table().num_rows(), parent->table().num_rows());
  EXPECT_TRUE(child->table().cell(1, 2).is_null());
  EXPECT_EQ(child->options().k, parent->options().k);
  EXPECT_EQ(child->options().risk_measure, parent->options().risk_measure);
}

TEST(SessionTest, ApplyRejectsBadBatchesWithoutSideEffects) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  core::DeltaBatchBuilder builder(session->table().num_columns());
  builder.Delete(10'000);
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(session->Apply(*batch).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Session().Apply(*batch).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, WarmApplyMatchesColdSessionBitIdentically) {
  auto parent = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(parent->Warm().ok());
  ASSERT_NE(parent->delta_index(), nullptr);

  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok());
  ASSERT_NE(child->warm_stats(), nullptr) << "warm parents hand down warm children";
  ASSERT_NE(child->delta_index(), nullptr);

  // Cold reference: a fresh warmed session over the post-delta table.
  auto cold = Session::FromTable(child->table(), {});
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->Warm().ok());
  EXPECT_EQ(child->warm_stats()->frequency, cold->warm_stats()->frequency);
  EXPECT_EQ(child->warm_stats()->weight_sum, cold->warm_stats()->weight_sum);

  auto child_risk = child->Risk();
  auto cold_risk = cold->Risk();
  ASSERT_TRUE(child_risk.ok());
  ASSERT_TRUE(cold_risk.ok());
  EXPECT_EQ(child_risk->tuple_risks, cold_risk->tuple_risks);

  auto child_released = child->Anonymize();
  auto cold_released = cold->Anonymize();
  ASSERT_TRUE(child_released.ok());
  ASSERT_TRUE(cold_released.ok());
  EXPECT_EQ(WriteCsv(child_released->table.ToCsv()),
            WriteCsv(cold_released->table.ToCsv()));
}

TEST(SessionTest, ParentKeepsServingPreDeltaResultsAfterApply) {
  auto parent = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(parent->Warm().ok());
  auto before = parent->Risk();
  ASSERT_TRUE(before.ok());

  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok());

  // The in-flight view of the parent is untouched, bit for bit.
  auto after = parent->Risk();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tuple_risks, before->tuple_risks);
  auto reference = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(reference.ok());
  auto fresh = reference->Risk();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(after->tuple_risks, fresh->tuple_risks);
}

TEST(SessionTest, FromSharedSessionsAfterParentApplyStayIndependent) {
  auto table = std::make_shared<const MicrodataTable>(Figure5Microdata());
  auto parent = Session::FromShared(table, nullptr, {});
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(parent->Warm().ok());

  // A sibling session adopting the parent's warm stats (the scheduler's
  // coalesced-warmup path) before the delta lands.
  auto sibling = Session::FromShared(table, nullptr, {});
  ASSERT_TRUE(sibling.ok());
  sibling->AdoptWarmStats(parent->warm_stats(), parent->warm_view());
  ASSERT_EQ(sibling->delta_index(), nullptr)
      << "adopted stats arrive without an index";

  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok());

  // The sibling still serves pre-delta results bit-identically...
  auto sibling_risk = sibling->Risk();
  auto parent_risk = parent->Risk();
  ASSERT_TRUE(sibling_risk.ok());
  ASSERT_TRUE(parent_risk.ok());
  EXPECT_EQ(sibling_risk->tuple_risks, parent_risk->tuple_risks);

  // ...and an Apply from the index-less sibling still works (cold child).
  auto cold_child = sibling->Apply(Fig5Delta(sibling->table()));
  ASSERT_TRUE(cold_child.ok());
  EXPECT_EQ(cold_child->warm_stats(), nullptr);
  ASSERT_TRUE(cold_child->Warm().ok());
  auto warm_risk = cold_child->Risk();
  auto child_risk = child->Risk();
  ASSERT_TRUE(warm_risk.ok());
  ASSERT_TRUE(child_risk.ok());
  EXPECT_EQ(warm_risk->tuple_risks, child_risk->tuple_risks)
      << "cold and incremental children agree bit for bit";
}

TEST(SessionTest, SharedTableServesManySessions) {
  auto table = std::make_shared<const MicrodataTable>(Figure5Microdata());
  SessionOptions strict;
  strict.k = 3;
  auto a = Session::FromShared(table, nullptr, {});
  auto b = Session::FromShared(table, nullptr, strict);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->shared_table().get(), b->shared_table().get());
  auto risks_a = a->Risk();
  auto risks_b = b->Risk();
  ASSERT_TRUE(risks_a.ok());
  ASSERT_TRUE(risks_b.ok());
  // Different k policies over the same shared snapshot stay independent.
  EXPECT_GE(risks_b->risky.size(), risks_a->risky.size());
}

/// `unique_rows` rows that are unique on the first QI column (risky under
/// every measure: k-anonymity, re-identification and individual risk see a
/// singleton group of weight 1, SUDA an MSU of size 1), followed by 200 rows
/// drawn from a handful of repeated combinations.
MicrodataTable TableWithUniqueRows(size_t unique_rows) {
  MicrodataTable table(
      "uniques", {{"Id", "", core::AttributeCategory::kIdentifier},
                  {"Area", "", core::AttributeCategory::kQuasiIdentifier},
                  {"Sector", "", core::AttributeCategory::kQuasiIdentifier},
                  {"Size", "", core::AttributeCategory::kQuasiIdentifier}});
  const char* kSectors[] = {"Textiles", "Commerce", "Financial"};
  for (size_t i = 0; i < unique_rows + 200; ++i) {
    const bool unique = i < unique_rows;
    EXPECT_TRUE(table
                    .AddRow({Value::String("c" + std::to_string(i)),
                             Value::String(unique ? "U" + std::to_string(i)
                                                  : (i % 2 == 0 ? "Roma" : "Milano")),
                             Value::String(kSectors[i % 3]),
                             Value::String(i % 4 < 2 ? "small" : "large")})
                    .ok());
  }
  return table;
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

/// Full grouping passes: one-shot ComputeGroupStats plus GroupIndex builds.
uint64_t FullGroupings() {
  return CounterValue("group_stats.computed") + CounterValue("group_index.full_builds");
}

struct ReportCost {
  uint64_t groupings = 0;
  uint64_t suda_searches = 0;
  size_t risky = 0;
};

ReportCost MeasureReport(const Session& session) {
  const uint64_t groupings = FullGroupings();
  const uint64_t searches = CounterValue("suda.searches");
  auto report = session.Risk(/*quantile=*/0.9, /*explain=*/true);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  ReportCost cost;
  cost.groupings = FullGroupings() - groupings;
  cost.suda_searches = CounterValue("suda.searches") - searches;
  if (report.ok()) {
    cost.risky = report->risky.size();
    for (const RiskyTuple& risky : report->risky) {
      EXPECT_FALSE(risky.explanation.empty()) << "row " << risky.row;
    }
  }
  return cost;
}

/// A risk report is one evaluation: a cold session groups the table exactly
/// once and a warm or adopted one not at all, however many rows it explains;
/// SUDA runs one MSU search per report.
TEST(SessionTest, RiskReportGroupsOncePerReport) {
  for (const char* measure : {"k-anonymity", "reidentification", "individual", "suda"}) {
    SCOPED_TRACE(measure);
    SessionOptions options;
    options.risk_measure = measure;
    const uint64_t expected_searches = std::string(measure) == "suda" ? 1 : 0;
    for (const size_t unique_rows : {100, 250}) {
      SCOPED_TRACE(unique_rows);
      const auto table =
          std::make_shared<const MicrodataTable>(TableWithUniqueRows(unique_rows));
      auto cold = Session::FromShared(table, nullptr, options);
      ASSERT_TRUE(cold.ok());
      const ReportCost cold_cost = MeasureReport(*cold);
      EXPECT_GE(cold_cost.risky, unique_rows);
      EXPECT_EQ(cold_cost.groupings, 1u);
      EXPECT_EQ(cold_cost.suda_searches, expected_searches);

      auto warm = Session::FromShared(table, nullptr, options);
      ASSERT_TRUE(warm.ok());
      ASSERT_TRUE(warm->Warm().ok());
      const ReportCost warm_cost = MeasureReport(*warm);
      EXPECT_EQ(warm_cost.risky, cold_cost.risky);
      EXPECT_EQ(warm_cost.groupings, 0u);
      EXPECT_EQ(warm_cost.suda_searches, expected_searches);

      // The serve scheduler's coalesced sessions: stats and view, no index.
      auto adopted = Session::FromShared(table, nullptr, options);
      ASSERT_TRUE(adopted.ok());
      adopted->AdoptWarmStats(warm->warm_stats(), warm->warm_view());
      ASSERT_EQ(adopted->delta_index(), nullptr);
      const ReportCost adopted_cost = MeasureReport(*adopted);
      EXPECT_EQ(adopted_cost.risky, cold_cost.risky);
      EXPECT_EQ(adopted_cost.groupings, 0u);
      EXPECT_EQ(adopted_cost.suda_searches, expected_searches);
    }
  }
}

}  // namespace
}  // namespace vadasa::api
