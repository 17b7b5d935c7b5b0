#include "core/global_risk.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/group_index.h"

namespace vadasa::core {

std::string GlobalRiskReport::ToString() const {
  std::ostringstream os;
  os << "expected re-identifications (tau1): " << expected_reidentifications
     << "; global rate (tau2): " << global_risk_rate
     << "; over threshold: " << tuples_over_threshold << "; max risk: " << max_risk
     << "; sample uniques: " << sample_uniques;
  return os.str();
}

GlobalRiskReport SummarizeGlobalRisk(const std::vector<double>& risks,
                                     const std::vector<double>& frequency,
                                     double threshold) {
  GlobalRiskReport report;
  for (const double r : risks) {
    report.expected_reidentifications += r;
    report.max_risk = std::max(report.max_risk, r);
    if (r > threshold) ++report.tuples_over_threshold;
  }
  if (!risks.empty()) {
    report.global_risk_rate =
        report.expected_reidentifications / static_cast<double>(risks.size());
  }
  for (const double f : frequency) {
    if (f == 1.0) ++report.sample_uniques;
  }
  return report;
}

Result<GlobalRiskReport> ComputeGlobalRisk(const MicrodataTable& table,
                                           const RiskMeasure& measure,
                                           const RiskContext& context,
                                           double threshold) {
  // One evaluation through a cache primed with the context's warm stats: a
  // grouping measure builds (or reads) the stats the uniqueness count reuses.
  const auto qis = context.ResolveQiColumns(table);
  RiskEvalCache cache;
  cache.AdoptWarmStats(qis, context.semantics, context.warm_stats, context.warm_view);
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                          measure.ComputeRisks(table, context, &cache));
  return SummarizeGlobalRisk(risks, cache.Stats(table, qis, context.semantics).frequency,
                             threshold);
}

namespace {

Status ValidateQuantile(double quantile) {
  if (quantile <= 0.0 || quantile >= 1.0) {
    return Status::InvalidArgument("quantile must be in (0, 1)");
  }
  return Status::OK();
}

}  // namespace

Result<double> QuantileThreshold(std::vector<double> risks, double quantile) {
  VADASA_RETURN_NOT_OK(ValidateQuantile(quantile));
  if (risks.empty()) {
    return Status::FailedPrecondition("cannot infer a threshold from an empty table");
  }
  std::sort(risks.begin(), risks.end());
  size_t index = static_cast<size_t>(quantile * static_cast<double>(risks.size()));
  if (index >= risks.size()) index = risks.size() - 1;
  return risks[index];
}

Result<double> InferThreshold(const MicrodataTable& table, const RiskMeasure& measure,
                              const RiskContext& context, double quantile) {
  VADASA_RETURN_NOT_OK(ValidateQuantile(quantile));
  VADASA_ASSIGN_OR_RETURN(std::vector<double> risks,
                          measure.ComputeRisks(table, context));
  return QuantileThreshold(std::move(risks), quantile);
}

}  // namespace vadasa::core
