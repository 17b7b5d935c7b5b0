#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The number of samples a reported percentile must leave above it.
inline constexpr size_t kSamplesBeyond = 10;

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty set.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// How many samples lie above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest whole percentile in [50, 99] that leaves at least
/// kSamplesBeyond samples above it, or 0 when even the median does not.
int HighestReportablePercentile(size_t n);

/// A timing series summarised the way every report line states it: median,
/// the named percentile, the highest reportable percentile, sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  int top_percentile = 0;
  double top = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

/// A closed time interval on one clock, in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi);

/// One recorded span. `parent` 0 marks a root.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t job = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// False for probe spans: calls the traced run makes only to attribute
  /// time, which the untraced run never executes.
  bool on_path = true;

  int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of each span (same order as `spans`): its duration minus the
/// union of its direct children's intervals.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
