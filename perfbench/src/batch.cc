// The two batch workloads, native-release and declarative-release: one
// process running release jobs back to back through the public entry points
// (api::Session, and core::VadalogBridge in the traced replay).
//
// Every release job runs twice per pass: once computed through Session (a
// miss: the `vadasa anonymize` path, which has no cache) and once answered
// from the serving layer's content-keyed ResultCache (a hit: re-open the
// CSV, fingerprint it, look the release up, write it out). Both kinds are
// therefore sampled throughout the run, like the server's hits and misses.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "api/vadasa.h"
#include "checks.h"
#include "common/csv.h"
#include "core/anonymize.h"
#include "core/categorize.h"
#include "core/cycle.h"
#include "core/global_risk.h"
#include "core/group_index.h"
#include "core/report.h"
#include "core/vadalog_bridge.h"
#include "inputs.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vadasa::CsvTable;
using vadasa::api::Session;
using vadasa::api::SessionOptions;
using vadasa::core::AttributeCategory;
using vadasa::core::DistributionKind;
using vadasa::core::MicrodataTable;

constexpr double kThreshold = 0.5;
constexpr int kK = 2;
// Set-up is repeated (at least kMinSetups times and until kSetupBudgetS of
// it has run) and reported as the median.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.5;
// Each pass draws its own tables, so a run averages over several draws of
// the data instead of repeating one (how much work SUDA's cycle or the chase
// does depends on the drawn data). Record mode runs all kMaxPasses.
constexpr int kMaxPasses = 6;

enum class JobKind { kAnonymize, kRiskReport };

struct Job {
  size_t dataset = 0;
  std::string measure;
  JobKind kind = JobKind::kAnonymize;
};

struct Plan {
  std::string workload;
  bool declarative = false;
  std::vector<DatasetSpec> datasets;
  std::vector<Job> jobs;
  size_t feed_dataset = 0;
  size_t feed_batches = 0;
  size_t feed_ops = 0;
  double risk_quantile = 0.95;
};

Plan NativePlan() {
  Plan plan;
  plan.workload = "native-release";
  plan.datasets = {{"u100k", 100000, 4, DistributionKind::kUnbalanced},
                   {"w50k", 50000, 6, DistributionKind::kRealWorld},
                   {"u25k", 25000, 4, DistributionKind::kUnbalanced}};
  for (const char* m : {"k-anonymity", "reidentification", "individual", "suda"}) {
    plan.jobs.push_back({0, m, JobKind::kAnonymize});
  }
  plan.jobs.push_back({1, "individual", JobKind::kAnonymize});
  plan.jobs.push_back({1, "suda", JobKind::kAnonymize});
  plan.jobs.push_back({2, "individual", JobKind::kAnonymize});
  plan.jobs.push_back({2, "k-anonymity", JobKind::kRiskReport});
  plan.feed_dataset = 2;
  plan.feed_batches = 100;
  plan.feed_ops = 25;  // 0.1% of 25k rows
  return plan;
}

Plan DeclarativePlan() {
  Plan plan;
  plan.workload = "declarative-release";
  plan.declarative = true;
  // Three independent 1k tables average out how much the chase's work
  // depends on the drawn data; the 2k table gives the size exponent.
  plan.datasets = {{"u1k-a", 1000, 4, DistributionKind::kUnbalanced},
                   {"u1k-b", 1000, 4, DistributionKind::kUnbalanced},
                   {"u1k-c", 1000, 4, DistributionKind::kUnbalanced},
                   {"u2k", 2000, 4, DistributionKind::kUnbalanced}};
  // The only measures the bridge's #risk implements.
  for (size_t d = 0; d < plan.datasets.size(); ++d) {
    for (const char* m : {"k-anonymity", "reidentification"}) {
      plan.jobs.push_back({d, m, JobKind::kAnonymize});
    }
  }
  plan.feed_dataset = 3;
  plan.feed_batches = 100;
  plan.feed_ops = 2;  // 0.1% of 2k rows
  return plan;
}

/// The seed of pass `pass`'s tables and feed batches.
uint64_t PassSeed(uint64_t seed, int pass) { return DeriveSeed(seed, 1000 + pass); }

/// A job's digest key in pass `pass`.
std::string DigestKey(const std::string& job_key, int pass) {
  return job_key + "@p" + std::to_string(pass);
}

std::string JobKey(const Plan& plan, const Job& job) {
  return plan.workload + "/" + plan.datasets[job.dataset].label + "/" + job.measure +
         (job.kind == JobKind::kRiskReport ? "/risk-report" : "");
}

SessionOptions OptionsFor(const std::string& measure, bool declarative) {
  SessionOptions options;
  options.risk_measure = measure;
  options.k = kK;
  options.threshold = kThreshold;
  options.declarative = declarative;
  return options;
}

/// What Session builds internally from SessionOptions (the traced replay
/// calls the core directly; the digest check proves it matches).
vadasa::core::RiskContext ContextFor(const SessionOptions& options) {
  vadasa::core::RiskContext ctx;
  ctx.k = options.k;
  ctx.semantics = options.standard_nulls ? vadasa::core::NullSemantics::kStandard
                                         : vadasa::core::NullSemantics::kMaybeMatch;
  ctx.posterior_draws = options.posterior_draws;
  ctx.seed = options.seed;
  return ctx;
}

struct Inputs {
  std::vector<Dataset> datasets;
  std::vector<CsvTable> csv;
  std::vector<std::vector<AttributeCategory>> categories;
  std::vector<vadasa::core::DeltaBatch> feed_batches;
  std::vector<size_t> feed_rows;  ///< Expected rows after each batch.
  std::vector<std::vector<std::string>> feed_final;
};

/// Per-operation samples and job totals of the untraced passes.
struct Samples {
  std::vector<double> miss, hit, risk, apply;
  std::map<std::string, std::vector<double>> by_job;
  double job_seconds = 0.0;
  /// Job time without the cache-answered repeats: what the traced replay
  /// re-executes.
  double computed_seconds = 0.0;
  size_t rows = 0;
  size_t jobs = 0;
};

/// Release digests: the first digest per job and pass (the traced replay and
/// the cached answer must match it) and the recorded book for seed 1.
struct DigestState {
  const RunOptions* options = nullptr;
  DigestBook book;
  std::map<std::string, std::string> first;

  std::string Check(const std::string& key, const std::string& digest) {
    auto [it, inserted] = first.emplace(key, digest);
    if (!inserted && it->second != digest) {
      return key + ": digest " + digest + " differs from this run's first " + it->second;
    }
    if (!inserted) return "";
    if (options->record_digests) {
      book.Record(key, digest);
      return "";
    }
    if (options->seed == book.seed()) return book.Check(key, digest);
    return "";
  }
};

std::string RiskDigest(const vadasa::api::RiskReport& report) {
  std::string text;
  for (double r : report.tuple_risks) text += FormatNumber(r) + ",";
  text += "|" + FormatNumber(report.inferred_threshold) + "|";
  for (const auto& risky : report.risky) {
    text += std::to_string(risky.row) + ":" + risky.explanation + "\n";
  }
  return Digest(text);
}

std::string CheckRiskReport(const vadasa::api::RiskReport& report, size_t rows) {
  if (report.tuple_risks.size() != rows) return "risk vector length differs from rows";
  for (double r : report.tuple_risks) {
    if (!(r >= 0.0 && r <= 1.0)) return "tuple risk outside [0,1]";
  }
  for (const auto& risky : report.risky) {
    if (!(risky.risk > report.threshold)) return "listed risky tuple is within T";
    if (risky.explanation.empty()) return "risky tuple without explanation";
  }
  if (!(report.inferred_threshold >= 0.0 && report.inferred_threshold <= 1.0)) {
    return "inferred threshold outside [0,1]";
  }
  return "";
}

/// The declarative release must pass the native measure: every tuple's
/// risk, recomputed through a fresh Session over the written release, is
/// within T. Returns "" or the violation.
std::string VerifyNativeRisk(const std::string& release_path, const std::string& measure) {
  auto session = Session::Open(release_path, OptionsFor(measure, false));
  if (!session.ok()) return "reopening release: " + session.status().message();
  auto report = session->Risk(-1.0, false);
  if (!report.ok()) return "native risk of release: " + report.status().message();
  for (double r : report->tuple_risks) {
    if (r > kThreshold) {
      return "declarative release has native " + measure + " risk " + FormatNumber(r) +
             " > T";
    }
  }
  return "";
}

/// Generates the inputs; returns the seconds it took (one set-up).
double Setup(const Plan& plan, uint64_t seed, Inputs* inputs, Report* report) {
  const int64_t start = NowNs();
  inputs->datasets.clear();
  for (size_t d = 0; d < plan.datasets.size(); ++d) {
    auto dataset = WriteDataset(plan.datasets[d], DeriveSeed(seed, d));
    if (!dataset.ok()) {
      report->Fail("generating " + plan.datasets[d].label + ": " +
                   dataset.status().message());
      return Seconds(NowNs() - start);
    }
    inputs->datasets.push_back(*dataset);
  }
  return Seconds(NowNs() - start);
}

/// Loads what the checks compare against and the seeded feed batches.
bool PrepareChecks(const Plan& plan, uint64_t seed, Inputs* inputs, Report* report) {
  for (const Dataset& d : inputs->datasets) {
    auto csv = vadasa::ReadCsvFile(d.path);
    auto session = Session::Open(d.path, OptionsFor("k-anonymity", false));
    if (!csv.ok() || !session.ok()) {
      report->Fail("reading back " + d.path);
      return false;
    }
    inputs->csv.push_back(std::move(*csv));
    inputs->categories.push_back(Categories(session->table()));
  }
  std::mt19937_64 rng(DeriveSeed(seed, 100));
  std::vector<std::vector<std::string>> mirror = inputs->csv[plan.feed_dataset].rows;
  const size_t columns = inputs->csv[plan.feed_dataset].header.size();
  for (size_t b = 0; b < plan.feed_batches; ++b) {
    std::vector<FeedOp> batch = MakeFeedBatch(rng, mirror, plan.feed_ops);
    auto delta = ToDeltaBatch(batch, columns);
    if (!delta.ok()) {
      report->Fail("building feed batch: " + delta.status().message());
      return false;
    }
    ApplyFeedBatch(batch, &mirror);
    inputs->feed_batches.push_back(std::move(*delta));
    inputs->feed_rows.push_back(mirror.size());
  }
  inputs->feed_final = std::move(mirror);
  return true;
}

void WriteText(const std::string& path, const std::string& text, Report* report) {
  if (!WriteFile(path, text)) report->Fail("writing " + path);
}

/// Writes a release and its audit the way `vadasa anonymize` does; returns
/// the release as CSV cells and text for the checks.
void WriteRelease(const std::string& stem, const vadasa::api::AnonymizeResponse& response,
                  CsvTable* release, std::string* text, std::string* audit, Report* report) {
  *audit = response.ToText();
  WriteText(stem + ".audit.txt", *audit, report);
  *release = response.table.ToCsv();
  *text = vadasa::WriteCsv(*release);
  WriteText(stem + ".release.csv", *text, report);
}

std::string CacheKey(const MicrodataTable& table, const SessionOptions& options) {
  return vadasa::serve::ResultCacheKey(
      vadasa::serve::FingerprintTable(table),
      vadasa::serve::CanonicalPolicyKey(options, vadasa::serve::JobAction::kAnonymize,
                                        -1.0, false));
}

/// The repeated request: answered from `cache`, which holds the miss's
/// response. Returns the seconds it took, or a negative value when it was
/// not answered or answered wrongly.
double ServeFromCache(vadasa::serve::ResultCache* cache, const Dataset& dataset,
                      const SessionOptions& options, const std::string& stem,
                      const std::string& expected_digest, const std::string& key,
                      Report* report) {
  report->Attempt();
  const int64_t t0 = NowNs();
  auto session = Session::Open(dataset.path, options);
  vadasa::serve::CachedResult cached;
  if (!session.ok() || !cache->Get(CacheKey(session->table(), options), &cached)) {
    report->Fail(key + ": repeated request missed the result cache");
    return -1.0;
  }
  CsvTable release;
  std::string text, audit;
  WriteRelease(stem + ".cached", cached.anonymize, &release, &text, &audit, report);
  const int64_t t1 = NowNs();
  if (DigestFields({text, audit}) != expected_digest) {
    report->Fail(key + ": cached release differs from the computed one");
    return -1.0;
  }
  return Seconds(t1 - t0);
}

/// The library form of apply_delta: the seeded 0.1% batches applied one
/// after another to a warm session over the feed table.
class Feed {
 public:
  Feed(const Inputs& in, size_t dataset, Report* report) : in_(in) {
    auto session = Session::Open(in.datasets[dataset].path, OptionsFor("k-anonymity", false));
    if (!session.ok() || !session->Warm().ok()) {
      report->Fail("feed open failed");
      return;
    }
    current_ = std::move(*session);
  }

  /// Applies batches until `fraction` of all of them have been applied.
  void ApplyUpTo(double fraction, Samples* samples, Report* report) {
    const size_t until = static_cast<size_t>(fraction * in_.feed_batches.size() + 0.5);
    for (; next_ < until && current_.has_value(); ++next_) {
      report->Attempt();
      const int64_t t0 = NowNs();
      auto child = current_->Apply(in_.feed_batches[next_]);
      const int64_t t1 = NowNs();
      if (!child.ok() || child->table().num_rows() != in_.feed_rows[next_]) {
        report->Fail("feed batch " + std::to_string(next_) + " failed or miscounted rows");
        PenalizeLatency(&samples->apply, false);
        current_.reset();
        return;
      }
      samples->apply.push_back(Seconds(t1 - t0));
      current_ = std::move(*child);
    }
    if (next_ == in_.feed_batches.size() && current_.has_value() && !checked_) {
      checked_ = true;
      if (current_->table().ToCsv().rows != in_.feed_final) {
        report->Fail("feed: final table differs from the expected content");
      }
    }
  }

 private:
  const Inputs& in_;
  std::optional<Session> current_;
  size_t next_ = 0;
  bool checked_ = false;
};

/// One untraced pass over every job. The feed's batches are spread between
/// the jobs so that every latency series samples the whole run.
void RunPass(const Plan& plan, const Inputs& in, int pass, Samples* samples,
             DigestState* digests, Report* report) {
  vadasa::serve::ResultCache cache;
  Feed feed(in, plan.feed_dataset, report);
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    feed.ApplyUpTo(static_cast<double>(j) / plan.jobs.size(), samples, report);
    const Job& job = plan.jobs[j];
    const std::string key = JobKey(plan, job);
    const Dataset& dataset = in.datasets[job.dataset];
    report->Attempt();
    const int64_t t0 = NowNs();
    auto session = Session::Open(dataset.path, OptionsFor(job.measure, plan.declarative));
    if (!session.ok()) {
      report->Fail(key + ": open: " + session.status().message());
      PenalizeLatency(job.kind == JobKind::kRiskReport ? &samples->risk : &samples->miss,
                      false);
      continue;
    }
    if (job.kind == JobKind::kRiskReport) {
      auto risk = session->Risk(plan.risk_quantile, /*explain=*/true);
      const int64_t t1 = NowNs();
      if (!risk.ok()) {
        report->Fail(key + ": " + risk.status().message());
        PenalizeLatency(&samples->risk, false);
        continue;
      }
      samples->risk.push_back(Seconds(t1 - t0));
      samples->job_seconds += Seconds(t1 - t0);
      samples->computed_seconds += Seconds(t1 - t0);
      samples->rows += dataset.spec.rows;
      ++samples->jobs;
      std::string why = CheckRiskReport(*risk, dataset.spec.rows);
      if (why.empty()) why = digests->Check(DigestKey(key, pass), RiskDigest(*risk));
      if (!why.empty()) {
        report->Fail(key + ": " + why);
        PenalizeLatency(&samples->risk, true);
      }
      continue;
    }
    auto released = session->Anonymize();
    if (!released.ok()) {
      report->Fail(key + ": " + released.status().message());
      PenalizeLatency(&samples->miss, false);
      continue;
    }
    const std::string stem = dataset.spec.label + "." + job.measure;
    const std::string release_path = stem + ".release.csv";
    CsvTable release;
    std::string text, audit;
    WriteRelease(stem, *released, &release, &text, &audit, report);
    const int64_t t1 = NowNs();
    samples->miss.push_back(Seconds(t1 - t0));
    samples->by_job[key].push_back(Seconds(t1 - t0));
    int64_t job_ns = t1 - t0;
    if (plan.declarative) {
      // The analyst's verification step: score the release natively.
      report->Attempt();
      const int64_t v0 = NowNs();
      const std::string verify = VerifyNativeRisk(release_path, job.measure);
      const int64_t v1 = NowNs();
      samples->risk.push_back(Seconds(v1 - v0));
      job_ns += v1 - v0;
      if (!verify.empty()) {
        report->Fail(key + ": " + verify);
        PenalizeLatency(&samples->risk, true);
      }
    }
    samples->job_seconds += Seconds(job_ns);
    samples->computed_seconds += Seconds(job_ns);
    samples->rows += dataset.spec.rows;
    ++samples->jobs;
    const std::string digest = DigestFields({text, audit});
    std::string why = CheckRelease(in.csv[job.dataset], release, in.categories[job.dataset]);
    if (why.empty()) why = digests->Check(DigestKey(key, pass), digest);
    if (!why.empty()) {
      report->Fail(key + ": " + why);
      PenalizeLatency(&samples->miss, true);
    }

    const SessionOptions options = OptionsFor(job.measure, plan.declarative);
    vadasa::serve::CachedResult fill;
    fill.anonymize = std::move(*released);
    cache.Put(CacheKey(session->table(), options), dataset.path, std::move(fill));
    const double hit = ServeFromCache(&cache, dataset, options, stem, digest, key, report);
    cache.InvalidateAll();  // hold one release at a time, like the CLI
    if (hit < 0) {
      PenalizeLatency(&samples->hit, false);
      continue;
    }
    samples->hit.push_back(hit);
    samples->job_seconds += hit;
    samples->rows += dataset.spec.rows;
    ++samples->jobs;
  }

  feed.ApplyUpTo(1.0, samples, report);
}

/// Totals the traced replay gathers outside its spans.
struct TracedStats {
  std::map<std::string, double> iterations, risk_eval_s, nulls;
  std::map<std::string, double> release_s;  ///< By "<dataset>/<measure>".
  double explain_calls = 0, audit_bytes = 0;
  double rounds = 0, facts = 0, nulls_created = 0, labelled_nulls = 0;
  double engine_self_s = 0, external_calls = 0, external_s = 0;
  double untraced_job_s = 0;
};

/// Reads the program's own engine.run / risk.external / anonymize.external
/// spans from one declarative cycle.
void AddEngineSpans(const std::vector<vadasa::obs::SpanEvent>& spans, TracedStats* ts) {
  std::vector<Interval> externals;
  for (const auto& s : spans) {
    const std::string name = s.name;
    if (name == "risk.external" || name == "anonymize.external") {
      externals.push_back({s.start_ns, s.end_ns});
      ts->external_calls += 1;
    }
  }
  for (const auto& s : spans) {
    if (std::string(s.name) != "engine.run") continue;
    const int64_t inside = UnionLength(externals, s.start_ns, s.end_ns);
    ts->engine_self_s += Seconds(s.end_ns - s.start_ns - inside);
    ts->external_s += Seconds(inside);
  }
}

/// The traced replay of pass 0: the same jobs, with Session::Open, Anonymize and
/// Risk unrolled into the public core calls they make so each gets a span,
/// plus probe spans (cold risk, index build, delta alternatives) that the
/// untraced path never runs.
void RunTracedPass(const Plan& plan, const Inputs& in, Tracer* tr, TracedStats* ts,
                   DigestState* digests, Report* report) {
  namespace core = vadasa::core;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const Job& job = plan.jobs[j];
    const std::string key = JobKey(plan, job);
    const Dataset& dataset = in.datasets[job.dataset];
    const SessionOptions options = OptionsFor(job.measure, plan.declarative);
    tr->set_job(j + 1);
    report->Attempt();
    Tracer::Scope root(tr, "job", key);
    std::optional<Session> session;
    {
      Tracer::Scope open(tr, "api.open");
      auto csv = [&] {
        Tracer::Scope s(tr, "common.csv_read");
        return vadasa::ReadCsvFile(dataset.path);
      }();
      if (!csv.ok()) {
        report->Fail(key + ": " + csv.status().message());
        continue;
      }
      auto table = [&] {
        Tracer::Scope s(tr, "core.from_csv");
        return MicrodataTable::FromCsv(dataset.path, *csv, {}, "");
      }();
      if (!table.ok()) {
        report->Fail(key + ": " + table.status().message());
        continue;
      }
      auto dictionary = std::make_shared<core::MetadataDictionary>();
      {
        Tracer::Scope s(tr, "core.categorize");
        auto categorizer = core::AttributeCategorizer::WithDefaultExperience();
        if (!categorizer.CategorizeTable(&*table, dictionary.get()).ok()) {
          report->Fail(key + ": categorize failed");
          continue;
        }
      }
      auto opened = Session::FromShared(
          std::make_shared<const MicrodataTable>(std::move(*table)), dictionary, options);
      if (!opened.ok()) {
        report->Fail(key + ": " + opened.status().message());
        continue;
      }
      session = std::move(*opened);
    }
    const MicrodataTable& table = session->table();
    const core::RiskContext ctx = ContextFor(options);
    auto measure = core::MakeRiskMeasure(job.measure);
    if (!measure.ok()) {
      report->Fail(key + ": " + measure.status().message());
      continue;
    }

    if (job.kind == JobKind::kRiskReport) {
      vadasa::api::RiskReport risk;
      risk.threshold = options.threshold;
      bool ok = true;
      {
        Tracer::Scope api_risk(tr, "api.risk");
        {
          Tracer::Scope s(tr, "core.risk", job.measure);
          auto risks = (*measure)->ComputeRisks(table, ctx);
          ok = risks.ok();
          if (ok) risk.tuple_risks = std::move(*risks);
        }
        {
          Tracer::Scope s(tr, "core.global_risk");
          auto global = core::ComputeGlobalRisk(table, **measure, ctx, options.threshold);
          ok = ok && global.ok();
          if (global.ok()) risk.global = *global;
        }
        {
          Tracer::Scope s(tr, "core.explain");
          for (size_t r = 0; ok && r < risk.tuple_risks.size(); ++r) {
            if (risk.tuple_risks[r] <= options.threshold) continue;
            vadasa::api::RiskyTuple risky;
            risky.row = r;
            risky.risk = risk.tuple_risks[r];
            risky.explanation = (*measure)->Explain(table, ctx, r, risky.risk);
            risk.risky.push_back(std::move(risky));
            ts->explain_calls += 1;
          }
        }
        {
          Tracer::Scope s(tr, "core.infer_threshold");
          auto inferred = core::InferThreshold(table, **measure, ctx, plan.risk_quantile);
          ok = ok && inferred.ok();
          if (inferred.ok()) risk.inferred_threshold = *inferred;
        }
      }
      std::string why = ok ? CheckRiskReport(risk, dataset.spec.rows) : "risk failed";
      if (why.empty()) why = digests->Check(DigestKey(key, 0), RiskDigest(risk));
      if (!why.empty()) report->Fail(key + ": " + why);
      continue;
    }

    MicrodataTable released = table;
    std::string audit;
    if (!plan.declarative) {
      {
        Tracer::Scope s(tr, "core.group_index_build", "", /*on_path=*/false);
        core::GroupIndex index(table, ctx.ResolveQiColumns(table), ctx.semantics);
      }
      {
        Tracer::Scope s(tr, "core.risk", job.measure, /*on_path=*/false);
        if (!(*measure)->ComputeRisks(table, ctx).ok()) report->Fail(key + ": cold risk");
      }
      auto result = [&] {
        Tracer::Scope s(tr, "core.release", job.measure);
        core::LocalSuppression anonymizer;
        core::CycleOptions cycle;
        cycle.threshold = options.threshold;
        cycle.risk = ctx;
        cycle.single_step = options.single_step;
        auto audited = core::RunAuditedRelease(&released, **measure, &anonymizer, cycle);
        ts->release_s[dataset.spec.label + "/" + job.measure] += Seconds(s.elapsed_ns());
        return audited;
      }();
      if (!result.ok()) {
        report->Fail(key + ": " + result.status().message());
        continue;
      }
      ts->iterations[job.measure] += static_cast<double>(result->cycle.iterations);
      ts->risk_eval_s[job.measure] += result->cycle.risk_eval_seconds;
      ts->nulls[job.measure] += static_cast<double>(released.CountNullCells());
      {
        Tracer::Scope s(tr, "core.audit_text");
        audit = result->ToText();
      }
      ts->audit_bytes += static_cast<double>(audit.size());
    } else {
      core::BridgeOptions bridge_options;
      bridge_options.risk_measure = options.risk_measure;
      bridge_options.k = options.k;
      bridge_options.threshold = options.threshold;
      bridge_options.maybe_match = !options.standard_nulls;
      vadasa::vadalog::RunStats stats;
      auto result = [&] {
        Tracer::Scope s(tr, "core.bridge_cycle", dataset.spec.label + "/" + job.measure);
        vadasa::obs::StartTracing();
        const core::VadalogBridge bridge(bridge_options);
        auto cycled = bridge.RunDeclarativeCycle(table, nullptr, &stats);
        vadasa::obs::StopTracing();
        ts->release_s[dataset.spec.label + "/" + job.measure] += Seconds(s.elapsed_ns());
        return cycled;
      }();
      AddEngineSpans(vadasa::obs::CollectSpans(), ts);
      if (!result.ok()) {
        report->Fail(key + ": " + result.status().message());
        continue;
      }
      released = std::move(*result);
      vadasa::api::AnonymizeResponse response;
      response.declarative = true;
      response.declarative_stats = stats;
      audit = response.ToText();
      ts->rounds += static_cast<double>(stats.rounds);
      ts->facts += static_cast<double>(stats.facts_derived);
      ts->nulls_created += static_cast<double>(stats.nulls_created);
      ts->labelled_nulls += static_cast<double>(released.CountNullCells());
    }
    const std::string release_path = dataset.spec.label + "." + job.measure + ".release.csv";
    WriteText(dataset.spec.label + "." + job.measure + ".audit.txt", audit, report);
    CsvTable release;
    std::string text;
    {
      Tracer::Scope s(tr, "common.csv_write");
      release = released.ToCsv();
      text = vadasa::WriteCsv(release);
      WriteText(release_path, text, report);
    }
    if (plan.declarative) {
      report->Attempt();
      Tracer::Scope s(tr, "api.verify_risk");
      const std::string verify = VerifyNativeRisk(release_path, job.measure);
      if (!verify.empty()) report->Fail(key + ": " + verify);
    }
    std::string why = CheckRelease(in.csv[job.dataset], release, in.categories[job.dataset]);
    if (why.empty()) why = digests->Check(DigestKey(key, 0), DigestFields({text, audit}));
    if (!why.empty()) report->Fail(key + ": " + why);
  }

  // The feed: Session::Apply on the warm parent is the path; the bare table
  // rebuild and a cold re-warm of the child (what the server pays today)
  // are probes beside it.
  const Dataset& feed = in.datasets[plan.feed_dataset];
  const SessionOptions feed_options = OptionsFor("k-anonymity", false);
  auto session = Session::Open(feed.path, feed_options);
  if (!session.ok() || !session->Warm().ok()) {
    report->Fail("feed open failed");
    return;
  }
  Session current = std::move(*session);
  for (size_t b = 0; b < in.feed_batches.size(); ++b) {
    tr->set_job(plan.jobs.size() + 1 + b);
    report->Attempt();
    Tracer::Scope root(tr, "feed");
    {
      Tracer::Scope s(tr, "core.delta_table", "", /*on_path=*/false);
      if (!vadasa::core::ApplyDeltaToTable(current.table(), in.feed_batches[b]).ok()) {
        report->Fail("feed probe: table delta failed");
      }
    }
    auto child = [&] {
      Tracer::Scope s(tr, "core.delta_index");
      return current.Apply(in.feed_batches[b]);
    }();
    if (!child.ok() || child->table().num_rows() != in.feed_rows[b]) {
      report->Fail("feed batch " + std::to_string(b) + " failed or miscounted rows");
      return;
    }
    {
      Tracer::Scope s(tr, "api.rewarm", "", /*on_path=*/false);
      auto fresh = Session::FromShared(child->shared_table(), nullptr, feed_options);
      if (!fresh.ok() || !fresh->Warm().ok()) report->Fail("feed probe: rewarm failed");
    }
    current = std::move(*child);
  }
}

void SetBatchLayers(const Plan& plan, const Tracer& tr, const TracedStats& ts,
                    Report* report) {
  const bool probe = false;
  report->Set("common.csv_read_s", SumSeconds(tr, "common.csv_read"), "s");
  report->Set("common.csv_write_s", SumSeconds(tr, "common.csv_write"), "s");
  report->Set("core.from_csv_s", SumSeconds(tr, "core.from_csv"), "s");
  report->Set("core.categorize_s", SumSeconds(tr, "core.categorize"), "s");
  report->Set("api.open_s", SumSeconds(tr, "api.open"), "s");
  report->Set("core.group_index_build_s", SumSeconds(tr, "core.group_index_build"), "s");
  for (const std::string m : {"k-anonymity", "reidentification", "individual", "suda"}) {
    report->Set("core.risk_s." + m, SumSeconds(tr, "core.risk", &m, &probe), "s");
    report->Set("core.release_s." + m, SumSeconds(tr, "core.release", &m), "s");
    auto get = [&m](const std::map<std::string, double>& by) {
      auto it = by.find(m);
      return it == by.end() ? 0.0 : it->second;
    };
    report->Set("core.cycle_iterations." + m, get(ts.iterations), "count");
    report->Set("core.cycle_risk_eval_s." + m, get(ts.risk_eval_s), "s");
    report->Set("core.nulls." + m, get(ts.nulls), "count");
  }
  report->Set("core.explain_s", SumSeconds(tr, "core.explain"), "s");
  report->Set("core.explain_calls", ts.explain_calls, "count");
  report->Set("core.audit_text_s", SumSeconds(tr, "core.audit_text"), "s");
  report->Set("core.audit_bytes", ts.audit_bytes, "bytes");
  report->Set("core.delta_table_s", Median(DurationsSeconds(tr, "core.delta_table")), "s");
  report->Set("core.delta_index_s", Median(DurationsSeconds(tr, "core.delta_index")), "s");
  report->Set("api.rewarm_s", Median(DurationsSeconds(tr, "api.rewarm")), "s");

  auto release = [&ts](const std::string& key) {
    auto it = ts.release_s.find(key);
    return it == ts.release_s.end() ? 0.0 : it->second;
  };
  if (!plan.declarative) {
    report->Set("core.cycle_size_exponent.individual",
                SizeExponent(25000, release("u25k/individual"), 100000,
                             release("u100k/individual")),
                "slope");
  } else {
    report->Set("core.bridge_cycle_s", SumSeconds(tr, "core.bridge_cycle"), "s");
    double exponent = 0.0;
    for (const std::string m : {"k-anonymity", "reidentification"}) {
      const double small =
          (release("u1k-a/" + m) + release("u1k-b/" + m) + release("u1k-c/" + m)) / 3.0;
      exponent += SizeExponent(1000, small, 2000, release("u2k/" + m)) / 2.0;
    }
    report->Set("core.bridge_size_exponent", exponent, "slope");
    report->Set("vadalog.rounds", ts.rounds, "count");
    report->Set("vadalog.facts_derived", ts.facts, "count");
    report->Set("vadalog.nulls_created", ts.nulls_created, "count");
    report->Set("core.release_labelled_nulls", ts.labelled_nulls, "count");
    report->Set("vadalog.engine_self_s", ts.engine_self_s, "s");
    report->Set("vadalog.external_calls", ts.external_calls, "count");
    report->Set("vadalog.external_s", ts.external_s, "s");
  }

  // Overhead over the jobs (the feed's probes dominate its own spans, so it
  // stays out). Probes are direct children of a job span, so the on-path self
  // times add up to exactly the traced job time without the probes: the
  // blocking steps account for the untraced time to within the overhead.
  double traced_path_s = 0.0;
  double blocking_self_s = 0.0;
  const std::vector<int64_t> self = SelfTimes(tr.spans());
  for (size_t i = 0; i < tr.spans().size(); ++i) {
    const SpanRecord& s = tr.spans()[i];
    if (s.job == 0 || s.job > plan.jobs.size()) continue;
    if (s.parent == 0) traced_path_s += Seconds(s.duration());
    if (!s.on_path) traced_path_s -= Seconds(s.duration());
    if (s.on_path) blocking_self_s += Seconds(self[i]);
  }
  report->Set("obs.trace_overhead_ratio",
              ts.untraced_job_s > 0 ? traced_path_s / ts.untraced_job_s - 1.0 : 0.0,
              "ratio");
  report->Note("traced_job_seconds", FormatNumber(traced_path_s));
  report->Note("untraced_job_seconds", FormatNumber(ts.untraced_job_s));
  report->Note("blocking_self_seconds", FormatNumber(blocking_self_s));
}

void RunBatch(const Plan& plan, const RunOptions& options, Report* report) {
  Inputs inputs;
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kMaxSetups &&
         (setups.size() < kMinSetups || setup_total < kSetupBudgetS)) {
    setups.push_back(Setup(plan, PassSeed(options.seed, 0), &inputs, report));
    setup_total += setups.back();
  }
  if (inputs.datasets.size() != plan.datasets.size()) return;
  const int64_t prepare_start = NowNs();
  if (!PrepareChecks(plan, PassSeed(options.seed, 0), &inputs, report)) return;
  const double prepare_s = Seconds(NowNs() - prepare_start);
  DigestState digests;
  digests.options = &options;
  digests.book = DigestBook::Load(options.digests_path);
  if (options.record_digests) digests.book.set_seed(options.seed);

  Samples samples;
  const int64_t start = NowNs();
  RunPass(plan, inputs, 0, &samples, &digests, report);
  const double first_pass_s = Seconds(NowNs() - start) + Median(setups) + prepare_s;

  if (options.trace) {
    Tracer tracer(true);
    TracedStats ts;
    ts.untraced_job_s = samples.computed_seconds;
    RunTracedPass(plan, inputs, &tracer, &ts, &digests, report);
    SetBatchLayers(plan, tracer, ts, report);
    WriteFile("trace.json", tracer.ToChromeJson());
  } else {
    // As many whole passes as fit the run's time, rounded to the nearest.
    const int passes =
        options.record_digests
            ? kMaxPasses
            : std::clamp(static_cast<int>(std::lround(options.seconds / first_pass_s)), 1,
                         kMaxPasses);
    for (int pass = 1; pass < passes; ++pass) {
      inputs = Inputs();
      Setup(plan, PassSeed(options.seed, pass), &inputs, report);
      if (inputs.datasets.size() != plan.datasets.size() ||
          !PrepareChecks(plan, PassSeed(options.seed, pass), &inputs, report)) {
        break;
      }
      RunPass(plan, inputs, pass, &samples, &digests, report);
    }
    report->Note("passes", std::to_string(passes));
    report->Set("setup_s", Median(setups), "s");
    report->Set("rows_per_s", samples.rows / samples.job_seconds, "rows/s");
    report->Set("serve_jobs_per_s", samples.jobs / samples.job_seconds, "1/s");
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    SetLatencyMetrics("anonymize_miss", samples.miss, report);
    SetLatencyMetrics("anonymize_hit", samples.hit, report);
    SetLatencyMetrics("risk", samples.risk, report);
    SetLatencyMetrics("apply_delta", samples.apply, report);
    report->Note("rows", std::to_string(samples.rows));
    report->Note("jobs", std::to_string(samples.jobs));
    report->Note("job_seconds", FormatNumber(samples.job_seconds));
    std::string by_job = "{";
    for (const auto& [key, seconds] : samples.by_job) {
      by_job += (by_job.size() > 1 ? ", " : "") + JsonString(key) + ": " +
                FormatNumber(Median(seconds));
    }
    report->Note("job_median_s", by_job + "}");
  }
  if (options.record_digests && !digests.book.Save(options.digests_path)) {
    report->Fail("cannot write " + options.digests_path);
  }
}

}  // namespace

void RunNativeRelease(const RunOptions& options, Report* report) {
  RunBatch(NativePlan(), options, report);
}

void RunDeclarativeRelease(const RunOptions& options, Report* report) {
  RunBatch(DeclarativePlan(), options, report);
}

}  // namespace perfbench
