#include "serve/scheduler.h"

#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "serve/result_cache.h"

namespace vadasa::serve {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t NsBetween(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Steady-clock nanoseconds since epoch — the tracer's timeline, so scheduler
/// timestamps can feed obs::EmitSpan directly.
int64_t ToTraceNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Handles resolved once; every instance meters into the global registry.
struct ServeMeters {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* expired;
  obs::Counter* warmups;
  obs::Counter* coalesce_hits;
  obs::Counter* watchdog_flagged;
  obs::Gauge* queue_depth;
  obs::Gauge* running;
  obs::Gauge* workers;
  obs::Histogram* queue_wait_ms;
  obs::Histogram* job_ms;

  static ServeMeters& Get() {
    static ServeMeters* meters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      auto* m = new ServeMeters();
      m->submitted = registry.counter("serve.submitted");
      m->admitted = registry.counter("serve.admitted");
      m->rejected = registry.counter("serve.rejected");
      m->completed = registry.counter("serve.completed");
      m->failed = registry.counter("serve.failed");
      m->cancelled = registry.counter("serve.cancelled");
      m->expired = registry.counter("serve.expired");
      m->warmups = registry.counter("serve.batch.warmups");
      m->coalesce_hits = registry.counter("serve.batch.coalesce_hits");
      m->watchdog_flagged = registry.counter("serve.watchdog.flagged");
      m->queue_depth = registry.gauge("serve.queue_depth");
      m->running = registry.gauge("serve.running");
      m->workers = registry.gauge("serve.workers");
      m->queue_wait_ms = registry.histogram("serve.queue_wait_ms");
      m->job_ms = registry.histogram("serve.job_ms");
      return m;
    }();
    return *meters;
  }
};

}  // namespace

std::string JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "unknown";
}

struct JobScheduler::Job {
  JobRequest request;
  JobOptions options;
  CancelToken cancel;
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point started;
  bool watchdog_flagged = false;  ///< The watchdog flags a job at most once.
  /// What Peek/Wait hand out; the payload is set only on kDone.
  JobResult result;
};

JobScheduler::JobScheduler(SchedulerOptions options) : options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
  paused_ = options_.start_paused;
  ServeMeters::Get().workers->Set(static_cast<double>(options_.workers));
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.watchdog_interval_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

JobScheduler::~JobScheduler() { Shutdown(/*drain=*/true); }

void JobScheduler::UpdateDepthGaugeLocked() {
  ServeMeters::Get().queue_depth->Set(static_cast<double>(queue_.size()));
}

Result<uint64_t> JobScheduler::Submit(JobRequest request, JobOptions options) {
  auto& meters = ServeMeters::Get();
  meters.submitted->Add(1);
  // Injected admission failure: surfaces to the client as a structured error
  // (the protocol layer releases any quota slot it reserved), never a wedge.
  VADASA_FAILPOINT("serve.scheduler.submit");
  auto job = std::make_shared<Job>();
  job->result.trace = obs::CurrentTraceId();
  job->result.action = request.action;
  job->request = std::move(request);
  job->options = options;
  job->submitted = std::chrono::steady_clock::now();
  // Probe the result cache before queueing (and before arming the deadline:
  // a hit needs neither). The payload copy happens outside the scheduler
  // lock; byte-identity of the served response is pinned by the
  // cached-result-bit-identical property.
  if (options_.result_cache != nullptr && !job->request.cache_key.empty()) {
    CachedResult hit;
    if (options_.result_cache->Get(job->request.cache_key, &hit)) {
      Released released;
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) {
        meters.rejected->Add(1);
        return Status::Unavailable("scheduler is shutting down");
      }
      job->result.id = next_id_++;
      job->result.from_cache = true;
      job->result.risk = std::move(hit.risk);
      job->result.anonymize = std::move(hit.anonymize);
      // Terminal immediately: never queued, never run — both phases are
      // zero on the job's own timeline.
      job->started = job->submitted;
      jobs_.emplace(job->result.id, job);
      meters.admitted->Add(1);
      released = FinishLocked(job.get(), JobState::kDone, Status::OK());
      return job->result.id;
    }
  }
  if (options.timeout_seconds > 0.0) {
    job->cancel.SetTimeout(std::chrono::nanoseconds(
        static_cast<int64_t>(options.timeout_seconds * 1e9)));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      meters.rejected->Add(1);
      return Status::Unavailable("scheduler is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      meters.rejected->Add(1);
      return Status::Unavailable(
          "admission queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.max_queue) + " jobs queued)");
    }
    job->result.id = next_id_++;
    queue_.emplace(std::make_pair(-options.priority, job->result.id), job);
    jobs_.emplace(job->result.id, job);
    meters.admitted->Add(1);
    UpdateDepthGaugeLocked();
  }
  work_cv_.notify_one();
  return job->result.id;
}

Result<JobState> JobScheduler::State(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  return it->second->result.state;
}

namespace {

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kExpired;
}

}  // namespace

Result<JobResult> JobScheduler::Peek(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  return it->second->result;
}

Result<JobResult> JobScheduler::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] { return IsTerminal(job->result.state); });
  return job->result;
}

Status JobScheduler::Cancel(uint64_t id) {
  Released released;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  Job* job = it->second.get();
  if (job->result.state == JobState::kQueued) {
    queue_.erase(std::make_pair(-job->options.priority, job->result.id));
    UpdateDepthGaugeLocked();
    released = FinishLocked(job, JobState::kCancelled,
                            Status::Cancelled("cancelled while queued"));
    return Status::OK();
  }
  if (job->result.state == JobState::kRunning) {
    job->cancel.Cancel();  // The job unwinds at its next iteration boundary.
  }
  return Status::OK();
}

void JobScheduler::CancelQueuedLocked(const char* reason,
                                      std::vector<Released>* released) {
  for (auto& [key, job] : queue_) {
    (void)key;
    released->push_back(FinishLocked(job.get(), JobState::kCancelled,
                                      Status::Cancelled(reason)));
  }
  queue_.clear();
  UpdateDepthGaugeLocked();
}

void JobScheduler::Shutdown(bool drain) {
  std::vector<Released> released;  // Destroyed after `lock` is released.
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  if (!drain) CancelQueuedLocked("cancelled at shutdown", &released);
  JoinThreadsLocked(&lock);
}

bool JobScheduler::ShutdownWithin(std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::vector<Released> released;  // Destroyed after `lock` is released.
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;    // No new admissions while we wait.
  paused_ = false;     // A paused scheduler still has to run out its queue.
  work_cv_.notify_all();
  const bool drained = done_cv_.wait_until(
      lock, deadline, [&] { return queue_.empty() && running_ == 0; });
  if (!drained) {
    // Budget exhausted: queued jobs are cancelled outright, running jobs get
    // a cooperative cancel and are still joined below (they unwind at their
    // next iteration boundary).
    CancelQueuedLocked("cancelled: drain budget exhausted", &released);
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->result.state == JobState::kRunning) job->cancel.Cancel();
    }
  }
  JoinThreadsLocked(&lock);
  return drained;
}

/// Sets shutdown_, drops the lock, and joins workers + watchdog. Idempotent;
/// `lock` must hold mutex_ on entry and is released on exit.
void JobScheduler::JoinThreadsLocked(std::unique_lock<std::mutex>* lock) {
  shutdown_ = true;
  lock->unlock();
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void JobScheduler::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

size_t JobScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

size_t JobScheduler::running_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

/// Transition to a terminal state; caller holds the mutex.
JobScheduler::Released JobScheduler::FinishLocked(Job* job, JobState state,
                                                  Status status) {
  auto& meters = ServeMeters::Get();
  if (job->started == std::chrono::steady_clock::time_point{}) {
    // Never dequeued (cancelled/expired while queued): the whole lifetime
    // was queue wait.
    const auto now = std::chrono::steady_clock::now();
    job->result.queue_seconds = SecondsBetween(job->submitted, now);
    job->result.queued_ns = NsBetween(job->submitted, now);
  }
  job->result.state = state;
  job->result.status = std::move(status);
  switch (state) {
    case JobState::kDone: meters.completed->Add(1); break;
    case JobState::kFailed: meters.failed->Add(1); break;
    case JobState::kCancelled: meters.cancelled->Add(1); break;
    case JobState::kExpired: meters.expired->Add(1); break;
    default: break;
  }
  if (options_.slow_log != nullptr) {
    obs::RequestLogEntry entry;
    entry.trace_id = job->result.trace;
    entry.op = job->request.action == JobAction::kRisk ? "risk" : "anonymize";
    entry.dataset = job->request.label;
    entry.queue_ms = job->result.queue_seconds * 1e3;
    entry.run_ms = job->result.run_seconds * 1e3;
    entry.outcome = JobStateToString(state);
    options_.slow_log->Record(entry);
  }
  if (job->options.quota_slot != nullptr) {
    // Exactly once per terminal transition: the client's in-flight slot
    // frees the moment the job stops occupying the scheduler.
    job->options.quota_slot->fetch_sub(1, std::memory_order_relaxed);
    job->options.quota_slot.reset();
  }
  done_cv_.notify_all();
  // The payload and timings stay for later `result` calls; the dataset
  // version goes.
  return Released{std::move(job->request.session),
                  std::move(job->request.dataset)};
}

void JobScheduler::WatchdogLoop() {
  auto& meters = ServeMeters::Get();
  const auto interval = std::chrono::milliseconds(options_.watchdog_interval_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!shutdown_) {
    watchdog_cv_.wait_for(lock, interval, [&] { return shutdown_; });
    if (shutdown_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->result.state != JobState::kRunning) continue;
      if (job->watchdog_flagged || job->options.timeout_seconds <= 0.0) continue;
      const double overdue_s =
          job->options.timeout_seconds * options_.watchdog_multiple;
      const double running_s = SecondsBetween(job->started, now);
      if (running_s < overdue_s) continue;
      // Flag exactly once: metric, forced slow-log line, cancel escalation
      // for jobs that stopped polling their own deadline.
      job->watchdog_flagged = true;
      meters.watchdog_flagged->Add(1);
      if (options_.slow_log != nullptr) {
        obs::RequestLogEntry entry;
        entry.trace_id = job->result.trace;
        entry.op =
            job->request.action == JobAction::kRisk ? "risk" : "anonymize";
        entry.dataset = job->request.label;
        entry.queue_ms = job->result.queue_seconds * 1e3;
        entry.run_ms = running_s * 1e3;
        entry.outcome = "overdue";
        options_.slow_log->Record(entry, /*force=*/true);
      }
      job->cancel.Cancel();
    }
  }
}

void JobScheduler::WorkerLoop() {
  auto& meters = ServeMeters::Get();
  for (;;) {
    std::shared_ptr<Job> job;
    Released released;  // Destroyed after `lock` is released.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // shutdown_ overrides paused_ so a drain always completes.
      work_cv_.wait(lock, [&] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (shutdown_) return;  // Drained: nothing left to run.
        continue;
      }
      auto it = queue_.begin();
      job = it->second;
      queue_.erase(it);
      UpdateDepthGaugeLocked();
      job->started = std::chrono::steady_clock::now();
      job->result.queue_seconds = SecondsBetween(job->submitted, job->started);
      job->result.queued_ns = NsBetween(job->submitted, job->started);
      meters.queue_wait_ms->Record(job->result.queue_seconds * 1e3);
      if (!job->cancel.Check().ok()) {
        // Cancelled or expired while queued; never starts.
        const Status verdict = job->cancel.Check();
        released = FinishLocked(job.get(),
                                verdict.code() == StatusCode::kDeadlineExceeded
                                    ? JobState::kExpired
                                    : JobState::kCancelled,
                                verdict);
        continue;
      }
      job->result.state = JobState::kRunning;
      ++running_;
      meters.running->Set(static_cast<double>(running_));
    }
    Execute(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      meters.running->Set(static_cast<double>(running_));
    }
    // ShutdownWithin waits for queue empty AND running == 0; the terminal
    // FinishLocked notified before this decrement, so notify again.
    done_cv_.notify_all();
  }
}

void JobScheduler::WarmUp(Job* job) {
  api::Session& session = job->request.session;
  // SUDA never reads group statistics; warming would be wasted work.
  if (session.options().risk_measure == "suda" ||
      session.warm_stats() != nullptr) {
    return;
  }
  auto& meters = ServeMeters::Get();
  const LoadedDataset* dataset = job->request.dataset.get();
  if (dataset == nullptr || dataset->table != session.shared_table()) {
    // No registry version behind the session: nothing to share it with. A
    // failed warmup is not a job failure either way: the cold call path
    // surfaces the same error itself.
    obs::Span span("serve.warmup");
    meters.warmups->Add(1);
    (void)session.Warm();
    return;
  }
  if (dataset->warm.Warm(&session)) {
    meters.warmups->Add(1);
  } else {
    meters.coalesce_hits->Add(1);
  }
}

void JobScheduler::Execute(const std::shared_ptr<Job>& job) {
  // Re-install the submitting request's trace id on the executor thread so
  // the job/warmup spans (and the ParallelFor shards under them) group with
  // the protocol spans of the same request in one trace.
  obs::ScopedTraceId trace_scope(job->result.trace);
  obs::EmitSpan("serve.queue_wait", ToTraceNs(job->submitted),
                ToTraceNs(job->started));
  obs::Span span("serve.job");
  auto& meters = ServeMeters::Get();
  WarmUp(job.get());

  Status verdict = job->cancel.Check();
  if (verdict.ok()) {
    // Injected mid-run failure/delay: the job finishes through the normal
    // terminal path (clean error + trace id), and a delay policy here is how
    // tests manufacture an overdue job for the watchdog.
    static failpoint::Failpoint* run_fp =
        failpoint::GetFailpoint("serve.scheduler.run");
    if (run_fp->armed()) verdict = run_fp->Eval();
    if (verdict.ok()) verdict = job->cancel.Check();
  }
  api::RiskReport risk;
  api::AnonymizeResponse anonymize;
  if (verdict.ok()) {
    if (job->request.action == JobAction::kRisk) {
      auto result = job->request.session.Risk(job->request.quantile,
                                              job->request.explain);
      if (result.ok()) {
        risk = std::move(*result);
      } else {
        verdict = result.status();
      }
    } else {
      api::AnonymizeRequest anonymize_request;
      anonymize_request.cancel = &job->cancel;
      auto result = job->request.session.Anonymize(anonymize_request);
      if (result.ok()) {
        anonymize = std::move(*result);
      } else {
        verdict = result.status();
      }
    }
  }

  // Fill the cache before taking the scheduler lock: ApproxResultBytes
  // serializes the payload for the byte accounting and must not stall other
  // workers. A failed job never fills — the cache only ever holds payloads a
  // cold run produced successfully.
  if (verdict.ok() && options_.result_cache != nullptr &&
      !job->request.cache_key.empty()) {
    CachedResult entry;
    entry.action = job->request.action;
    entry.risk = risk;
    entry.anonymize = anonymize;
    options_.result_cache->Put(job->request.cache_key, job->request.label,
                               std::move(entry));
  }

  Released released;  // Destroyed after `lock` is released.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto finished = std::chrono::steady_clock::now();
  job->result.run_seconds = SecondsBetween(job->started, finished);
  job->result.run_ns = NsBetween(job->started, finished);
  meters.job_ms->Record(job->result.run_seconds * 1e3);
  JobState state = JobState::kFailed;
  if (verdict.ok()) {
    job->result.risk = std::move(risk);
    job->result.anonymize = std::move(anonymize);
    state = JobState::kDone;
  } else if (verdict.code() == StatusCode::kCancelled) {
    state = JobState::kCancelled;
  } else if (verdict.code() == StatusCode::kDeadlineExceeded) {
    state = JobState::kExpired;
  }
  released = FinishLocked(job.get(), state, std::move(verdict));
}

}  // namespace vadasa::serve
