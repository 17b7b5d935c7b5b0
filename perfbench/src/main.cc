// perfbench — runs one workload of the vadasa benchmark and prints one JSON
// result line (see perfbench/README.md):
//
//   perfbench --workload native-release|declarative-release|serve-mixed
//             --seed N --seconds S --trace 0|1 --digests PATH --serve PATH
//             [--workdir DIR] [--record-digests]
//
// The run works inside --workdir (created and emptied first). With --trace 0
// it prints every end-to-end metric, with --trace 1 every per-layer metric.
// Exit code 0 when the run completed (failed operations are counted in the
// result, not signalled by the exit code), 2 on bad arguments.

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"rows_per_s", "rows/s"},
      {"peak_rss_mb", "MiB"},
      {"serve_jobs_per_s", "1/s"},
      {"anonymize_miss_p50_ms", "ms"},
      {"anonymize_miss_p90_ms", "ms"},
      {"anonymize_hit_p50_ms", "ms"},
      {"anonymize_hit_p90_ms", "ms"},
      {"risk_p50_ms", "ms"},
      {"risk_p90_ms", "ms"},
      {"apply_delta_p50_ms", "ms"},
      {"apply_delta_p90_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"common.csv_read_s", "s"},
        {"common.csv_write_s", "s"},
        {"core.from_csv_s", "s"},
        {"core.categorize_s", "s"},
        {"api.open_s", "s"},
        {"core.group_index_build_s", "s"},
    };
    for (const char* measure : {"k-anonymity", "reidentification", "individual", "suda"}) {
      const std::string s = measure;
      m.push_back({"core.risk_s." + s, "s"});
      m.push_back({"core.release_s." + s, "s"});
      m.push_back({"core.cycle_iterations." + s, "count"});
      m.push_back({"core.cycle_risk_eval_s." + s, "s"});
      m.push_back({"core.nulls." + s, "count"});
    }
    for (auto entry : std::vector<std::pair<std::string, std::string>>{
             {"core.cycle_size_exponent.individual", "slope"},
             {"core.explain_s", "s"},
             {"core.explain_calls", "count"},
             {"core.audit_text_s", "s"},
             {"core.audit_bytes", "bytes"},
             {"core.delta_table_s", "s"},
             {"core.delta_index_s", "s"},
             {"api.rewarm_s", "s"},
             {"core.bridge_cycle_s", "s"},
             {"core.bridge_size_exponent", "slope"},
             {"vadalog.rounds", "count"},
             {"vadalog.facts_derived", "count"},
             {"vadalog.nulls_created", "count"},
             {"core.release_labelled_nulls", "count"},
             {"vadalog.engine_self_s", "s"},
             {"vadalog.external_calls", "count"},
             {"vadalog.external_s", "s"},
             {"serve.queue_ms_p50", "ms"},
             {"serve.queue_ms_p90", "ms"},
             {"serve.run_ms_p50.anonymize", "ms"},
             {"serve.run_ms_p50.risk", "ms"},
             {"serve.wire_ms_p50.hit", "ms"},
             {"serve.wire_ms_p50.miss", "ms"},
             {"serve.response_bytes.anonymize", "bytes"},
             {"serve.response_bytes.risk", "bytes"},
             {"serve.cache_hit_ratio", "ratio"},
             {"serve.submits", "count"},
             {"serve.cache_evictions", "count"},
             {"serve.warmups", "count"},
             {"serve.coalesce_hits", "count"},
             {"serve.rejected", "count"},
             {"client.parse_ms_p50", "ms"},
             {"obs.trace_overhead_ratio", "ratio"},
         }) {
      m.push_back(std::move(entry));
    }
    return m;
  }();
  return kMetrics;
}

void SetLatencyMetrics(const std::string& op, const std::vector<double>& seconds,
                       Report* report) {
  const Summary s = Summarize(seconds);
  report->Set(op + "_p50_ms", s.p50 * 1e3, "ms");
  report->Set(op + "_p90_ms", s.p90 * 1e3, "ms");
  std::string deciles = "[";
  for (int p = 10; p <= 90; p += 10) {
    deciles += (p > 10 ? ", " : "") + FormatNumber(Percentile(seconds, p) * 1e3);
  }
  report->Note(op + "_ms", SummaryJson(s, 1e3));
  report->Note(op + "_ms_deciles", deciles + "]");
}

double SizeExponent(double small_size, double small_seconds, double big_size,
                    double big_seconds) {
  if (small_seconds <= 0 || big_seconds <= 0) return 0.0;
  return std::log(big_seconds / small_seconds) / std::log(big_size / small_size);
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --digests PATH --serve PATH [--workdir DIR] "
               "[--record-digests]\n",
               why);
  return 2;
}

/// The machine-wide "cpu" line of /proc/stat: {steal ticks, all ticks}, or
/// zeros where it cannot be read.
std::pair<double, double> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  char label[8] = {};
  double t[8] = {};
  const int got = std::fscanf(f, "%7s %lf %lf %lf %lf %lf %lf %lf %lf", label, &t[0], &t[1],
                              &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  std::fclose(f);
  if (got != 9) return {0, 0};
  double total = 0;
  for (double x : t) total += x;
  return {t[7], total};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workdir = "perfbench-run";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record-digests") {
      options.record_digests = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--digests") {
        options.digests_path = std::filesystem::absolute(value).string();
      } else if (arg == "--serve") {
        options.serve_binary = std::filesystem::absolute(value).string();
      } else if (arg == "--workdir") {
        workdir = value;
      } else {
        return Usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (options.record_digests && options.seed != kDefaultSeed) {
    return Usage("--record-digests needs the default seed");
  }
  void (*run)(const RunOptions&, Report*) = nullptr;
  if (options.workload == "native-release") run = RunNativeRelease;
  if (options.workload == "declarative-release") run = RunDeclarativeRelease;
  if (options.workload == "serve-mixed") run = RunServeMixed;
  if (run == nullptr) return Usage("unknown --workload");

  // The library's data-parallel sections run inline on one thread: on a
  // small shared machine the pool's wake-up latency makes parallel timings
  // bimodal run to run. The spawned server inherits the setting. Results are
  // byte-identical for any thread count (the repository's tests pin that).
  ::setenv("VADASA_THREADS", "1", /*overwrite=*/1);

  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  std::filesystem::create_directories(workdir, ec);
  if (ec || ::chdir(workdir.c_str()) != 0) return Usage("cannot use --workdir");

  Report report;
  const auto ticks0 = CpuTicks();
  run(options, &report);
  const auto ticks1 = CpuTicks();
  // On a virtual machine, the share of CPU time the host withheld during the
  // run (steal); shared hosts slow every timing when it rises, so it tells a
  // noisy run from a regression.
  const double all_ticks = ticks1.second - ticks0.second;
  report.Note("host_steal_share",
              FormatNumber(all_ticks > 0 ? (ticks1.first - ticks0.first) / all_ticks : 0.0));

  // Every metric of the run's kind is printed; a per-layer metric whose
  // layer this workload does not exercise reads 0.
  const auto& names = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  Report printed;
  // A run that failed before its first operation still attempted one.
  printed.Attempt(std::max({report.attempted(), report.failed(), size_t{1}}));
  for (const std::string& f : report.failures()) printed.Fail(f);
  for (size_t i = report.failures().size(); i < report.failed(); ++i) printed.Fail("");
  for (const auto& [name, unit] : names) printed.Set(name, report.Get(name), unit);
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "perfbench: failed: %s\n", f.c_str());
  }
  WriteFile("report.json", report.DetailJson());
  std::printf("%s\n", printed.ResultLine().c_str());
  return 0;
}
