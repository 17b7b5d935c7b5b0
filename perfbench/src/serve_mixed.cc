// The serve-mixed workload: a spawned vadasa_serve driven by a closed loop of
// persistent unix-socket clients. A reader submits Zipf-popular anonymize
// policies over two static datasets; a writer streams apply_delta batches
// into a feed dataset and reads every new version back with an explained
// risk submit (every eighth version also with an anonymize submit).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "api/vadasa.h"
#include "checks.h"
#include "common/csv.h"
#include "common/json.h"
#include "core/delta.h"
#include "inputs.h"
#include "serve_client.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vadasa::CsvTable;
using vadasa::Json;
using vadasa::core::AttributeCategory;
using vadasa::core::DistributionKind;

constexpr const char* kSocket = "serve.sock";
constexpr int kSetupRepeats = 3;
constexpr int kServeCpus = 2;
// A fresh server runs its first seconds slower (heap growth, the result
// cache filling with first-touch misses), so each traffic phase starts with
// this much unmeasured traffic.
constexpr double kWarmupSeconds = 5.0;
// Reader mix: 70% of submits go to the 6k-row table. About two thirds of
// the hits are then small releases (the hit median sits inside them) and a
// third 50k-row ones (so does the p90), and misses are mostly short ones
// (feed read-backs, 6k-row evictions) with the 50k-row evictions in the
// tail, so no percentile sits on the border of two modes.
constexpr double kSmallDatasetShare = 0.7;
constexpr double kZipfExponent = 1.0;
constexpr size_t kFeedOps = 20;  ///< 0.1% of the 20k-row feed.
// The writer reads every new feed version back with a risk submit and every
// eighth with an anonymize submit too, so feed reads do not crowd the 50k-row
// misses out of the miss series' tail.
constexpr int64_t kFeedAnonymizeEvery = 8;

const std::vector<DatasetSpec>& ServeDatasets() {
  static const std::vector<DatasetSpec> kDatasets = {
      {"s6k", 6000, 4, DistributionKind::kUnbalanced},
      {"w50k", 50000, 6, DistributionKind::kRealWorld},
      {"feed20k", 20000, 4, DistributionKind::kRealWorld}};
  return kDatasets;
}
constexpr size_t kFeed = 2;

/// One submit's policy; `Line` renders it for dataset `path`.
struct Policy {
  size_t dataset = 0;
  bool risk = false;
  std::string measure;
  int k = 2;
  double threshold = 0.5;

  std::string Key() const {
    return ServeDatasets()[dataset].label + "/" + (risk ? "risk/" : "anonymize/") +
           measure + "/k" + std::to_string(k) + "/t" + FormatNumber(threshold);
  }
  std::string Line(const std::string& path) const {
    return "{\"op\": \"submit\", \"dataset\": " + JsonString(path) +
           ", \"action\": \"" + (risk ? "risk" : "anonymize") + "\", \"measure\": \"" +
           measure + "\", \"k\": " + std::to_string(k) +
           ", \"threshold\": " + FormatNumber(threshold) +
           (dataset == kFeed ? ", \"priority\": 1" : "") +
           (risk ? ", \"explain\": true}" : "}");
  }
};

const std::vector<std::string>& Measures() {
  static const std::vector<std::string> kMeasures = {"k-anonymity", "reidentification",
                                                     "individual", "suda"};
  return kMeasures;
}

/// A fixed popularity order (independent of the run seed, so every seed
/// sees the same head): policies shuffled once with a constant seed.
std::vector<Policy> Ranked(std::vector<Policy> policies) {
  std::mt19937_64 rng(20211);
  std::shuffle(policies.begin(), policies.end(), rng);
  return policies;
}

/// The 40 anonymize policies over dataset `d` in popularity order.
std::vector<Policy> AnonymizePolicies(size_t d) {
  std::vector<Policy> out;
  for (const std::string& m : Measures()) {
    for (int k : {2, 3}) {
      for (double t : {0.5, 0.4, 0.3, 0.2, 0.1}) out.push_back({d, false, m, k, t});
    }
  }
  return Ranked(std::move(out));
}

const std::vector<std::vector<Policy>>& AnonymizeUniverse() {
  static const std::vector<std::vector<Policy>> kUniverse = {AnonymizePolicies(0),
                                                             AnonymizePolicies(1)};
  return kUniverse;
}

template <typename T>
std::vector<T> Concat(std::vector<T> a, const std::vector<T>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Zipf(s) over ranks 0..n-1.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double total = 0.0;
    for (size_t r = 1; r <= n; ++r) cdf_.push_back(total += 1.0 / std::pow(r, s));
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto rank =
        static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct ServeInputs {
  std::vector<Dataset> datasets;
  std::vector<CsvTable> csv;
  std::vector<std::vector<AttributeCategory>> categories;
};

/// Everything one client measured; merged after the loop joins.
struct ClientLog {
  std::vector<double> miss, hit, risk, apply, parse;
  std::vector<double> queue_s, run_anonymize_s, run_risk_s, wire_hit_s, wire_miss_s;
  std::vector<double> bytes_anonymize, bytes_risk;
  double submits = 0, hits = 0, jobs = 0, rows = 0;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<std::vector<FeedOp>> feed_batches;  ///< Writer only.
  int64_t last_end_ns = 0;
  /// Client-side request spans (traced phase only).
  Tracer tracer{false};

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 10) failures.push_back(why);
  }
  /// A submit that failed before its result arrived.
  void FailJob(const Policy& policy, const std::string& why) {
    Fail(why);
    PenalizeLatency(policy.risk ? &risk : &miss, false);
  }
  void Merge(const ClientLog& o) {
    for (auto [dst, src] :
         {std::pair{&miss, &o.miss}, {&hit, &o.hit}, {&risk, &o.risk}, {&apply, &o.apply},
          {&parse, &o.parse}, {&queue_s, &o.queue_s}, {&run_anonymize_s, &o.run_anonymize_s},
          {&run_risk_s, &o.run_risk_s}, {&wire_hit_s, &o.wire_hit_s},
          {&wire_miss_s, &o.wire_miss_s}, {&bytes_anonymize, &o.bytes_anonymize},
          {&bytes_risk, &o.bytes_risk}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    submits += o.submits;
    hits += o.hits;
    jobs += o.jobs;
    rows += o.rows;
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.failures) {
      if (failures.size() < 20) failures.push_back(f);
    }
    last_end_ns = std::max(last_end_ns, o.last_end_ns);
    tracer.Merge(o.tracer);
  }
};

/// Shared, read-only state of one traffic phase plus the payload ledger.
struct Phase {
  const RunOptions* options = nullptr;
  const ServeInputs* inputs = nullptr;
  const DigestBook* book = nullptr;
  PayloadLedger ledger;
  int64_t deadline_ns = 0;
};

/// Checks the first anonymize payload seen for a key against the content
/// it was computed from (later ones must equal it byte for byte).
std::string CheckAnonymizePayload(const Phase& phase, const Policy& policy,
                                  const std::string& csv_text, const std::string& audit,
                                  const CsvTable& input,
                                  const std::vector<AttributeCategory>& categories) {
  auto release = vadasa::ParseCsv(csv_text);
  if (!release.ok()) return "release CSV does not parse";
  std::string why = CheckRelease(input, *release, categories);
  if (!why.empty()) return why;
  if (policy.dataset != kFeed && phase.options->seed == phase.book->seed() &&
      !phase.options->record_digests) {
    return phase.book->Check("serve-mixed/" + policy.Key(), DigestFields({csv_text, audit}));
  }
  return "";
}

/// Submits `policy` and waits for its result; records latency, server
/// timings and checks. `input` is the dataset content the job must see.
void RunJob(Phase& phase, Connection& conn, const Policy& policy, const std::string& key,
            const CsvTable& input, ClientLog* log) {
  const ServeInputs& in = *phase.inputs;
  const std::string& path = in.datasets[policy.dataset].path;
  ++log->attempted;
  log->submits += 1;
  const int64_t t0 = NowNs();
  if (!conn.WriteLine(policy.Line(path)).ok()) return log->FailJob(policy, key + ": send failed");
  auto ack_line = conn.ReadLine();
  if (!ack_line.ok()) return log->FailJob(policy, key + ": " + ack_line.status().message());
  const int64_t a0 = NowNs();
  auto ack = Json::Parse(*ack_line);
  const int64_t a1 = NowNs();
  if (!ack.ok() || !ack->GetBool("ok", false)) {
    return log->FailJob(policy, key + ": submit refused");
  }
  const std::string request =
      "{\"op\": \"result\", \"id\": " + std::to_string(ack->GetInt("id", 0)) + "}";
  if (!conn.WriteLine(request).ok()) return log->FailJob(policy, key + ": send failed");
  auto line = conn.ReadLine();
  const int64_t t1 = NowNs();
  if (!line.ok()) return log->FailJob(policy, key + ": " + line.status().message());
  auto result = Json::Parse(*line);
  const int64_t t2 = NowNs();
  log->last_end_ns = t1;
  const double round_trip = Seconds(t1 - t0 - (a1 - a0));
  log->parse.push_back(Seconds(t2 - t1 + a1 - a0));
  const uint64_t span = log->tracer.Record("client.request", key, t0, t1);
  log->tracer.Record("client.parse", "ack", a0, a1, span);
  log->tracer.Record("client.parse", "result", t1, t2);
  if (!result.ok() || !result->GetBool("ok", false) ||
      result->GetString("state", "") != "done") {
    return log->FailJob(policy, key + ": job did not finish: " + line->substr(0, 200));
  }
  const bool cached = result->GetBool("cached", false);
  const double queue = result->GetDouble("queue_seconds", 0.0);
  const double run = result->GetDouble("run_seconds", 0.0);
  std::string digest;
  std::string why;
  if (policy.risk) {
    log->risk.push_back(round_trip);
    log->bytes_risk.push_back(static_cast<double>(line->size()));
    const Json& risk = (*result)["risk"];
    const auto& risks = risk["tuple_risks"].AsArray();
    if (risks.size() != input.rows.size()) why = "risk vector length differs from rows";
    for (const Json& r : risks) {
      if (!(r.AsDouble(-1) >= 0.0 && r.AsDouble(-1) <= 1.0)) why = "risk outside [0,1]";
    }
    digest = Digest(risk.Dump());
  } else {
    const std::string& csv = (*result)["csv"].AsString();
    const std::string& audit = (*result)["audit"].AsString();
    (cached ? log->hit : log->miss).push_back(round_trip);
    (cached ? log->wire_hit_s : log->wire_miss_s).push_back(round_trip - queue - run);
    log->bytes_anonymize.push_back(static_cast<double>(line->size()));
    digest = DigestFields({csv, audit});
  }
  const PayloadLedger::Verdict verdict = phase.ledger.Observe(key, digest);
  if (verdict == PayloadLedger::Verdict::kDifferent) {
    why = "payload differs from the first answer for this key";
  } else if (verdict == PayloadLedger::Verdict::kFirst && !policy.risk) {
    why = CheckAnonymizePayload(phase, policy, (*result)["csv"].AsString(),
                                (*result)["audit"].AsString(), input,
                                in.categories[policy.dataset]);
  }
  if (cached) {
    log->hits += 1;
  } else {
    log->queue_s.push_back(queue);
    (policy.risk ? log->run_risk_s : log->run_anonymize_s).push_back(run);
  }
  log->jobs += 1;
  log->rows += static_cast<double>(input.rows.size());
  if (!why.empty()) {
    log->Fail(key + ": " + why);
    PenalizeLatency(policy.risk ? &log->risk : (cached ? &log->hit : &log->miss), true);
  }
}

/// The feed writer: apply_delta, then read the new version back.
class FeedWriter {
 public:
  FeedWriter(const ServeInputs& in, uint64_t seed)
      : rng_(DeriveSeed(seed, 300)), content_(in.csv[kFeed]) {}

  bool Step(Phase& phase, Connection& conn, ClientLog* log) {
    if (NowNs() >= phase.deadline_ns) return false;
    if (risk_pending_ || anonymize_pending_) {
      // An explained risk read (which pays the re-warm), then on every
      // kFeedAnonymizeEvery-th version an anonymize read.
      const Policy read{kFeed, risk_pending_, "k-anonymity", 2, 0.5};
      (risk_pending_ ? risk_pending_ : anonymize_pending_) = false;
      RunJob(phase, conn, read, "feed@v" + std::to_string(version_) + "/" + read.Key(),
             content_, log);
      return true;
    }
    std::vector<FeedOp> batch = MakeFeedBatch(rng_, content_.rows, kFeedOps);
    const std::string line = ApplyDeltaLine(batch, phase.inputs->datasets[kFeed].path);
    ++log->attempted;
    const int64_t t0 = NowNs();
    if (!conn.WriteLine(line).ok()) {
      log->Fail("apply_delta: send failed");
      PenalizeLatency(&log->apply, false);
      return false;
    }
    auto reply_line = conn.ReadLine();
    const int64_t t1 = NowNs();
    if (!reply_line.ok()) {
      log->Fail("apply_delta: " + reply_line.status().message());
      PenalizeLatency(&log->apply, false);
      return false;
    }
    auto reply = Json::Parse(*reply_line);
    log->parse.push_back(Seconds(NowNs() - t1));
    log->last_end_ns = t1;
    log->apply.push_back(Seconds(t1 - t0));
    log->tracer.Record("client.apply_delta", "", t0, t1);
    ApplyFeedBatch(batch, &content_.rows);
    ++version_;
    log->feed_batches.push_back(std::move(batch));
    risk_pending_ = true;
    anonymize_pending_ = version_ % kFeedAnonymizeEvery == 0;
    if (!reply.ok() || !reply->GetBool("ok", false)) {
      log->Fail("apply_delta refused: " + reply_line->substr(0, 200));
      PenalizeLatency(&log->apply, true);
      return false;
    }
    if (reply->GetInt("version", -1) != version_ ||
        reply->GetInt("rows", -1) != static_cast<int64_t>(content_.rows.size())) {
      log->Fail("apply_delta reply reports version " +
                std::to_string(reply->GetInt("version", -1)) + " rows " +
                std::to_string(reply->GetInt("rows", -1)) + ", expected " +
                std::to_string(version_) + " / " + std::to_string(content_.rows.size()));
      PenalizeLatency(&log->apply, true);
    }
    return true;
  }

 private:
  std::mt19937_64 rng_;
  CsvTable content_;
  int64_t version_ = 1;  ///< Registration is version 1.
  bool risk_pending_ = false;
  bool anonymize_pending_ = false;
};

/// Spawns the server and has it load and answer once per dataset.
vadasa::Result<ServerProcess> StartServer(const RunOptions& options,
                                          const ServeInputs& in, double* setup_s) {
  const int64_t t0 = NowNs();
  VADASA_ASSIGN_OR_RETURN(
      ServerProcess server,
      ServerProcess::Spawn({options.serve_binary, std::string("--listen=unix:") + kSocket},
                           kSocket, "serve.log"));
  VADASA_ASSIGN_OR_RETURN(Connection conn, Connection::Open(kSocket));
  for (const Dataset& d : in.datasets) {
    VADASA_RETURN_NOT_OK(conn.WriteLine("{\"op\": \"submit\", \"dataset\": " +
                                        JsonString(d.path) + ", \"action\": \"risk\"}"));
    VADASA_ASSIGN_OR_RETURN(std::string ack_line, conn.ReadLine());
    VADASA_ASSIGN_OR_RETURN(Json ack, Json::Parse(ack_line));
    VADASA_RETURN_NOT_OK(conn.WriteLine("{\"op\": \"result\", \"id\": " +
                                        std::to_string(ack.GetInt("id", 0)) + "}"));
    VADASA_ASSIGN_OR_RETURN(std::string line, conn.ReadLine());
    VADASA_ASSIGN_OR_RETURN(Json result, Json::Parse(line));
    if (result.GetString("state", "") != "done") {
      return vadasa::Status::Internal("loading " + d.path + " failed: " + line.substr(0, 200));
    }
  }
  *setup_s = Seconds(NowNs() - t0);
  return server;
}

/// Asks the server to drain and exit; kills it if it does not.
bool Shutdown(ServerProcess* server) {
  if (auto conn = Connection::Open(kSocket); conn.ok()) {
    (void)conn->WriteLine("{\"op\": \"shutdown\"}");
    (void)conn->ReadLine();
  }
  return server->Stop(30.0);
}

struct TrafficResult {
  ClientLog log;  ///< Measured traffic only.
  size_t warmup_attempted = 0, warmup_failed = 0;
  std::vector<std::string> warmup_failures;
  double elapsed_s = 0.0;
  size_t connections = 0;
  std::vector<std::vector<FeedOp>> feed_batches;
};

/// Runs the closed loop against a freshly started server: kWarmupSeconds of
/// traffic whose samples are dropped (only its failures count), then
/// `seconds` measured.
TrafficResult RunTraffic(const RunOptions& options, const ServeInputs& in,
                         const DigestBook& book, double seconds, int clients,
                         bool traced) {
  Phase phase;
  phase.options = &options;
  phase.inputs = &in;
  phase.book = &book;
  const int64_t start = NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  phase.deadline_ns = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::vector<ClientLog> warmup_logs(static_cast<size_t>(clients));
  for (ClientLog& log : logs) log.tracer = Tracer(traced);
  FeedWriter writer(in, options.seed);
  const Zipf zipf(AnonymizeUniverse()[0].size(), kZipfExponent);
  std::vector<std::mt19937_64> rngs;
  for (int c = 0; c < clients; ++c) rngs.emplace_back(DeriveSeed(options.seed, 200 + c));

  const ClosedLoopStats stats = RunClosedLoop(kSocket, clients, [&](int c, Connection& conn) {
    ClientLog* log = &(NowNs() < start ? warmup_logs : logs)[static_cast<size_t>(c)];
    if (c == 0) return writer.Step(phase, conn, log);
    if (NowNs() >= phase.deadline_ns) return false;
    std::mt19937_64& rng = rngs[static_cast<size_t>(c)];
    const size_t dataset =
        std::uniform_real_distribution<double>(0.0, 1.0)(rng) < kSmallDatasetShare ? 0 : 1;
    const Policy& policy = AnonymizeUniverse()[dataset][zipf.Draw(rng)];
    RunJob(phase, conn, policy, policy.Key(), in.csv[policy.dataset], log);
    return true;
  });

  TrafficResult out;
  for (ClientLog& log : warmup_logs) {
    out.warmup_attempted += log.attempted;
    out.warmup_failed += log.failed;
    out.warmup_failures.insert(out.warmup_failures.end(), log.failures.begin(),
                               log.failures.end());
  }
  // The writer is client 0: its warm-up batches precede the measured ones.
  for (ClientLog* log : {&warmup_logs[0], &logs[0]}) {
    for (auto& b : log->feed_batches) out.feed_batches.push_back(std::move(b));
  }
  for (ClientLog& log : logs) out.log.Merge(log);
  out.connections = stats.connections_opened;
  if (stats.connect_failures > 0) {
    out.log.attempted += stats.connect_failures;
    out.log.failed += stats.connect_failures;
    out.log.failures.push_back("client could not connect");
  }
  out.elapsed_s = Seconds(std::max(out.log.last_end_ns, start) - start);
  return out;
}

void CountFailures(size_t attempted, size_t failed, const std::vector<std::string>& failures,
                   Report* report) {
  report->Attempt(attempted);
  size_t listed = 0;
  for (const auto& f : failures) {
    report->Fail(f);
    ++listed;
  }
  for (size_t i = listed; i < failed; ++i) report->Fail("(failure detail dropped)");
}

/// Every operation of `t`, warm-up included, counts in attempted/failed.
void MergeInto(const TrafficResult& t, Report* report) {
  CountFailures(t.warmup_attempted, t.warmup_failed, t.warmup_failures, report);
  CountFailures(t.log.attempted, t.log.failed, t.log.failures, report);
}

/// In-process probes for the serve-side layers the client cannot see:
/// group index build and audit rendering per dataset, and the three ways
/// to absorb each feed batch the writer sent.
void RunProbes(const ServeInputs& in, const std::vector<std::vector<FeedOp>>& batches,
               Tracer* tr, Report* report) {
  using vadasa::api::Session;
  vadasa::api::SessionOptions options;  // k-anonymity, k=2, T=0.5
  double audit_bytes = 0;
  for (const Dataset& d : in.datasets) {
    auto session = Session::Open(d.path, options);
    if (!session.ok()) {
      report->Fail("probe open " + d.path);
      continue;
    }
    {
      Tracer::Scope s(tr, "core.group_index_build", d.spec.label, false);
      if (!session->Warm().ok()) report->Fail("probe warm " + d.path);
    }
    auto released = session->Anonymize();
    if (!released.ok()) {
      report->Fail("probe anonymize " + d.path);
      continue;
    }
    Tracer::Scope s(tr, "core.audit_text", d.spec.label, false);
    audit_bytes += static_cast<double>(released->ToText().size());
  }
  report->Set("core.audit_bytes", audit_bytes, "bytes");

  auto session = Session::Open(in.datasets[kFeed].path, options);
  if (!session.ok() || !session->Warm().ok()) {
    report->Fail("probe feed open");
    return;
  }
  vadasa::api::Session current = std::move(*session);
  for (const auto& ops : batches) {
    auto batch = ToDeltaBatch(ops, current.table().num_columns());
    if (!batch.ok()) {
      report->Fail("probe feed batch");
      return;
    }
    {
      Tracer::Scope s(tr, "core.delta_table", "", false);
      if (!vadasa::core::ApplyDeltaToTable(current.table(), *batch).ok()) {
        report->Fail("probe delta table");
      }
    }
    auto child = [&] {
      Tracer::Scope s(tr, "core.delta_index", "", false);
      return current.Apply(*batch);
    }();
    if (!child.ok()) {
      report->Fail("probe delta index");
      return;
    }
    {
      Tracer::Scope s(tr, "api.rewarm", "", false);
      auto fresh = Session::FromShared(child->shared_table(), nullptr, options);
      if (!fresh.ok() || !fresh->Warm().ok()) report->Fail("probe rewarm");
    }
    current = std::move(*child);
  }
}

/// Restricts the calling thread, and so every thread and process it starts
/// afterwards, to the first `n` CPUs it may use. Returns them as a JSON list
/// ("[]" when fewer than `n` are available and nothing changed).
std::string PinToCpus(int n) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < n) {
    return "[]";
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list += (taken++ > 0 ? ", " : "") + std::to_string(cpu);
  }
  return ::sched_setaffinity(0, sizeof(pinned), &pinned) == 0 ? "[" + list + "]" : "[]";
}

double Mean(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}


}  // namespace

void RunServeMixed(const RunOptions& options, Report* report) {
  // The runner, its client threads and the server share two CPUs. Spread
  // over more, the ~1.8 CPUs of demand leaves CPUs idle between requests, and
  // on a virtual machine waking an idle CPU can wait for the host scheduler:
  // the short operations' latencies then followed the host's load (risk p90
  // 30-54 ms unpinned against 31-37 ms pinned, same seeds, interleaved).
  report->Note("cpus", PinToCpus(kServeCpus));
  ServeInputs in;
  for (size_t d = 0; d < ServeDatasets().size(); ++d) {
    auto dataset = WriteDataset(ServeDatasets()[d], DeriveSeed(options.seed, d));
    auto csv = dataset.ok() ? vadasa::ReadCsvFile(dataset->path)
                            : vadasa::Result<CsvTable>(dataset.status());
    auto session = dataset.ok() ? vadasa::api::Session::Open(dataset->path, {})
                                : vadasa::Result<vadasa::api::Session>(dataset.status());
    if (!csv.ok() || !session.ok()) {
      report->Fail("preparing " + ServeDatasets()[d].label);
      return;
    }
    in.datasets.push_back(*dataset);
    in.csv.push_back(std::move(*csv));
    in.categories.push_back(Categories(session->table()));
  }
  DigestBook book = DigestBook::Load(options.digests_path);
  if (options.record_digests) {
    // Every static anonymize key, computed in-process: the server returns
    // exactly WriteCsv(release) and the audit text for each.
    book = DigestBook();
    book.set_seed(options.seed);
    for (const Policy& p : Concat(AnonymizeUniverse()[0], AnonymizeUniverse()[1])) {
      vadasa::api::SessionOptions o;
      o.risk_measure = p.measure;
      o.k = p.k;
      o.threshold = p.threshold;
      auto session = vadasa::api::Session::Open(in.datasets[p.dataset].path, o);
      auto released = session.ok() ? session->Anonymize()
                                    : vadasa::Result<vadasa::api::AnonymizeResponse>(
                                          session.status());
      if (!released.ok()) {
        report->Fail("recording " + p.Key());
        continue;
      }
      book.Record("serve-mixed/" + p.Key(),
                  DigestFields({vadasa::WriteCsv(released->table.ToCsv()), released->ToText()}));
    }
    if (!book.Save(options.digests_path)) report->Fail("cannot write digests");
  }

  // One writer and one reader (see README: with more readers, a varying
  // share of the feed's read-backs queues behind 50k-row misses).
  const int clients = 2;
  report->Note("server_argv", "[\"vadasa_serve\", \"--listen=unix:serve.sock\"]");
  report->Note("server_defaults", "{\"workers\": 2, \"cache_mb\": 64}");
  report->Note("clients", std::to_string(clients));

  std::vector<double> setups;
  ServerProcess server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0 && !Shutdown(&server)) report->Fail("server did not exit cleanly");
    double setup_s = 0.0;
    auto started = StartServer(options, in, &setup_s);
    report->Attempt();
    if (!started.ok()) {
      report->Fail("server start: " + started.status().message());
      return;
    }
    server = std::move(*started);
    setups.push_back(setup_s);
  }

  if (!options.trace) {
    TrafficResult t = RunTraffic(options, in, book, options.seconds, clients, false);
    const double peak = PeakRssMb(server.pid());
    if (!Shutdown(&server)) report->Fail("server did not exit cleanly");
    MergeInto(t, report);
    const ClientLog& log = t.log;
    report->Set("setup_s", Median(setups), "s");
    report->Set("rows_per_s", log.rows / t.elapsed_s, "rows/s");
    report->Set("serve_jobs_per_s", log.jobs / t.elapsed_s, "1/s");
    report->Set("peak_rss_mb", peak, "MiB");
    SetLatencyMetrics("anonymize_miss", log.miss, report);
    SetLatencyMetrics("anonymize_hit", log.hit, report);
    SetLatencyMetrics("risk", log.risk, report);
    SetLatencyMetrics("apply_delta", log.apply, report);
    report->Note("connections_opened", std::to_string(t.connections));
    report->Note("elapsed_s", FormatNumber(t.elapsed_s));
    report->Note("cache_hits_over_submits",
                 "[" + FormatNumber(log.hits) + ", " + FormatNumber(log.submits) + "]");
    return;
  }

  // Traced: the same seeded traffic twice on fresh servers, untraced then
  // with client-side spans, for the overhead ratio; then a metrics scrape
  // and the in-process probes.
  const double half = options.seconds / 2.0;
  TrafficResult untraced = RunTraffic(options, in, book, half, clients, false);
  if (!Shutdown(&server)) report->Fail("server did not exit cleanly");
  double setup_s = 0.0;
  auto restarted = StartServer(options, in, &setup_s);
  if (!restarted.ok()) {
    report->Fail("server restart: " + restarted.status().message());
    return;
  }
  server = std::move(*restarted);
  TrafficResult traced = RunTraffic(options, in, book, half, clients, true);
  Json metrics;
  if (auto conn = Connection::Open(kSocket); conn.ok() &&
                                             conn->WriteLine("{\"op\": \"metrics\"}").ok()) {
    if (auto line = conn->ReadLine(); line.ok()) {
      if (auto parsed = Json::Parse(*line); parsed.ok()) metrics = (*parsed)["metrics"];
    }
  }
  if (!Shutdown(&server)) report->Fail("server did not exit cleanly");
  MergeInto(untraced, report);
  MergeInto(traced, report);

  const ClientLog& log = traced.log;
  const auto all_rt = [](const ClientLog& l) {
    return Concat(Concat(Concat(l.miss, l.hit), l.risk), l.apply);
  };
  const double untraced_mean = Mean(all_rt(untraced.log));
  report->Set("obs.trace_overhead_ratio",
              untraced_mean > 0 ? Mean(all_rt(log)) / untraced_mean - 1.0 : 0.0, "ratio");
  report->Set("serve.queue_ms_p50", Percentile(log.queue_s, 50) * 1e3, "ms");
  report->Set("serve.queue_ms_p90", Percentile(log.queue_s, 90) * 1e3, "ms");
  report->Set("serve.run_ms_p50.anonymize", Median(log.run_anonymize_s) * 1e3, "ms");
  report->Set("serve.run_ms_p50.risk", Median(log.run_risk_s) * 1e3, "ms");
  report->Set("serve.wire_ms_p50.hit", Median(log.wire_hit_s) * 1e3, "ms");
  report->Set("serve.wire_ms_p50.miss", Median(log.wire_miss_s) * 1e3, "ms");
  report->Set("serve.response_bytes.anonymize", Median(log.bytes_anonymize), "bytes");
  report->Set("serve.response_bytes.risk", Median(log.bytes_risk), "bytes");
  report->Set("serve.cache_hit_ratio", log.submits > 0 ? log.hits / log.submits : 0.0,
              "ratio");
  report->Set("serve.submits", log.submits, "count");
  report->Set("serve.cache_evictions", metrics.GetDouble("serve.cache.evictions", 0), "count");
  report->Set("serve.warmups", metrics.GetDouble("serve.batch.warmups", 0), "count");
  report->Set("serve.coalesce_hits", metrics.GetDouble("serve.batch.coalesce_hits", 0),
              "count");
  report->Set("serve.rejected", metrics.GetDouble("serve.rejected", 0), "count");
  report->Set("client.parse_ms_p50", Median(log.parse) * 1e3, "ms");
  report->Note("queue_samples", std::to_string(log.queue_s.size()));
  report->Note("server_metrics", metrics.Dump());

  Tracer tracer(true);
  tracer.Merge(log.tracer);
  RunProbes(in, traced.feed_batches, &tracer, report);
  report->Set("core.group_index_build_s", SumSeconds(tracer, "core.group_index_build"), "s");
  report->Set("core.audit_text_s", SumSeconds(tracer, "core.audit_text"), "s");
  report->Set("core.delta_table_s", Median(DurationsSeconds(tracer, "core.delta_table")), "s");
  report->Set("core.delta_index_s", Median(DurationsSeconds(tracer, "core.delta_index")), "s");
  report->Set("api.rewarm_s", Median(DurationsSeconds(tracer, "api.rewarm")), "s");
  WriteFile("trace.json", tracer.ToChromeJson());
}

}  // namespace perfbench
