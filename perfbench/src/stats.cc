#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

int HighestReportablePercentile(size_t n) {
  for (int p = 99; p >= 50; --p) {
    if (SamplesBeyond(n, p) >= kSamplesBeyond) return p;
  }
  return 0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = Percentile(samples, 50.0);
  s.p90 = Percentile(samples, 90.0);
  s.top_percentile = HighestReportablePercentile(s.n);
  s.top = s.top_percentile > 0 ? Percentile(samples, s.top_percentile) : 0.0;
  return s;
}

int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self;
  self.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : UnionLength(it->second, s.start_ns, s.end_ns);
    self.push_back(s.duration() - covered);
  }
  return self;
}

}  // namespace perfbench
