#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), shared by every span and sample.
int64_t NowNs();
inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Benchmark-side spans, buffered in memory and written out once at the
/// end. A disabled tracer records nothing and reads no clock, so the
/// untraced runs pay nothing for the instrumentation points.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Tags every span opened from now on with `job`.
  void set_job(uint64_t job) { job_ = job; }

  /// A span covering the scope's lifetime, nested under the innermost
  /// open scope of the same tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::string tag = "",
          bool on_path = true);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Span duration so far (0 when the tracer is disabled).
    int64_t elapsed_ns() const;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  /// Appends a finished span with explicit times (client-side request
  /// spans, whose boundaries are socket events rather than scopes).
  uint64_t Record(const char* name, std::string tag, int64_t start_ns,
                  int64_t end_ns, uint64_t parent = 0);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<std::string>& tags() const { return tags_; }
  /// Appends another tracer's spans (renumbered), e.g. per-client buffers.
  void Merge(const Tracer& other);

  /// Chrome trace_event JSON of every span, for offline inspection.
  std::string ToChromeJson() const;

 private:
  bool enabled_;
  uint64_t job_ = 0;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
  std::vector<std::string> tags_;  ///< Parallel to spans_.
  std::vector<uint64_t> stack_;
};

/// Sums the durations of spans named `name` (optionally with `tag`),
/// restricted to on-path or probe spans when `on_path` is given.
double SumSeconds(const Tracer& tracer, const std::string& name,
                  const std::string* tag = nullptr, const bool* on_path = nullptr);
std::vector<double> DurationsSeconds(const Tracer& tracer, const std::string& name);

/// What one benchmark run prints: operation counts, failures and metrics.
class Report {
 public:
  void Attempt(size_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and keeps the first few reasons.
  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit);
  /// Extra detail (sample counts, bases, server flags) for the report file.
  void Note(const std::string& key, const std::string& json_value);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  double Get(const std::string& name) const;

  /// The contract line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;
  /// The result line's fields plus every note, for the run's report file.
  std::string DetailJson() const;

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Every timing series is noted with its sample count and the highest
/// percentile that keeps kSamplesBeyond samples above it.
std::string SummaryJson(const Summary& s, double scale);

std::string JsonString(const std::string& s);
std::string FormatNumber(double v);

/// Peak resident set (VmHWM) of `pid` ("self" when 0), in MiB; 0 on error.
double PeakRssMb(int pid = 0);

/// Writes `text` to `path`, replacing it; false on I/O failure.
bool WriteFile(const std::string& path, const std::string& text);
/// Reads all of `path` into `text`; false when it cannot be read.
bool ReadFile(const std::string& path, std::string* text);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
