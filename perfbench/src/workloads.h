#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// The seed whose release digests perfbench/digests.json records.
inline constexpr uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  /// false: untraced run, end-to-end metrics. true: traced run, per-layer
  /// metrics (an untraced pass is replayed first for the overhead ratio).
  bool trace = false;
  /// Recorded release digests (absolute path).
  std::string digests_path;
  /// Write the digests this run computes into digests_path instead of
  /// checking them (only with the default seed).
  bool record_digests = false;
  /// The vadasa_serve binary (absolute path).
  std::string serve_binary;
};

/// Each workload runs in the current directory (the run's working
/// directory), fills `report` and returns normally; failures are counted
/// in the report, never thrown.
void RunNativeRelease(const RunOptions& options, Report* report);
void RunDeclarativeRelease(const RunOptions& options, Report* report);
void RunServeMixed(const RunOptions& options, Report* report);

/// Every end-to-end metric (name, unit), in the order BENCHMARK.json lists
/// them. Every workload reports all of them.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// Every per-layer metric (name, unit). A traced run reports all of them;
/// a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// A failed, refused or wrongly answered operation enters its latency series
/// as this many seconds, so it counts against every percentile above it.
inline constexpr double kFailedLatencyS = 1000.0;

/// Records a failed operation in `series`: appended, or replacing the sample
/// the operation already contributed when `measured` is true.
inline void PenalizeLatency(std::vector<double>* series, bool measured) {
  if (measured && !series->empty()) {
    series->back() = kFailedLatencyS;
  } else {
    series->push_back(kFailedLatencyS);
  }
}

/// The end-to-end latency metrics from per-operation samples (seconds):
/// `<op>_p50_ms` / `<op>_p90_ms`, each series noted with its sample count.
void SetLatencyMetrics(const std::string& op, const std::vector<double>& seconds,
                       Report* report);

/// Log-log slope of time against size between two points.
double SizeExponent(double small_size, double small_seconds, double big_size,
                    double big_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
