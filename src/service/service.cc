#include "service/service.h"

#include <algorithm>
#include <chrono>

#include "util/fault.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* QueryDispositionToString(QueryDisposition d) {
  switch (d) {
    case QueryDisposition::kCompleted:
      return "completed";
    case QueryDisposition::kFailed:
      return "failed";
    case QueryDisposition::kShed:
      return "shed";
    case QueryDisposition::kRejectedQueueFull:
      return "rejected-queue-full";
    case QueryDisposition::kRejectedDeadline:
      return "rejected-deadline";
  }
  return "unknown";
}

std::string ServiceCounters::ToString() const {
  return StringPrintf(
      "submitted %lld | admitted %lld (queued %lld) | completed %lld, "
      "failed %lld, shed %lld, rejected queue-full %lld, rejected deadline "
      "%lld | peak queue %lld, peak running %lld | pool %lld bytes in use "
      "(peak %lld)",
      static_cast<long long>(submitted), static_cast<long long>(admitted),
      static_cast<long long>(queued), static_cast<long long>(completed),
      static_cast<long long>(failed), static_cast<long long>(shed),
      static_cast<long long>(rejected_queue_full),
      static_cast<long long>(rejected_deadline),
      static_cast<long long>(peak_queue_depth),
      static_cast<long long>(peak_running),
      static_cast<long long>(pool_bytes_in_use),
      static_cast<long long>(pool_peak_bytes));
}

/// Shared state of one submitted statement. Admission fields (queue
/// membership, governor, resolved flag) are guarded by the service mutex;
/// the completion latch has its own leaf mutex so Wait() never touches
/// service state. Lock order: service mu_ before State::mu, always.
struct QueryTicket::State {
  // Immutable after Submit.
  std::string sql;
  SessionOptions session;
  double submit_seconds = 0.0;
  double deadline_seconds = 0.0;  // absolute steady-clock; 0 = none
  uint64_t seq = 0;

  // Guarded by the owning service's mu_.
  bool in_queue = false;
  bool resolved = false;
  bool cancel_requested = false;
  bool waited = false;  // entered the queue without a free slot
  std::string cancel_reason;
  std::shared_ptr<QueryGovernor> governor;  // set while running
  QueryOutcome staged_outcome;  // filled by Execute, committed by worker

  // Cleared when resolved; lets Cancel find the service lock-free.
  std::atomic<QueryService*> service{nullptr};

  // Completion latch (leaf lock).
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  QueryOutcome outcome;
};

const QueryOutcome& QueryTicket::Wait() const {
  static const QueryOutcome kEmpty;
  if (state_ == nullptr) return kEmpty;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->outcome;
}

bool QueryTicket::Done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void QueryTicket::Cancel(const std::string& reason) const {
  if (state_ == nullptr) return;
  QueryService* service = state_->service.load(std::memory_order_acquire);
  if (service == nullptr) return;  // already resolved
  service->CancelTicket(state_, reason);
}

QueryService::QueryService(const ServiceConfig& config,
                           const DataFacadeProvider* provider)
    : config_(config),
      provider_(provider),
      pool_(config.global_memory_budget_bytes) {
  if (config_.worker_slots < 1) config_.worker_slots = 1;
  // The slots run statements side by side, so parallelism 0 ("one thread
  // per core") means each slot's share of the cores here: every slot at
  // one thread per core would oversubscribe the machine, and fork-join
  // steps then wait on helpers that lost their core.
  if (config_.planner.parallelism == 0) {
    int cores = static_cast<int>(std::thread::hardware_concurrency());
    config_.planner.parallelism = std::max(1, cores / config_.worker_slots);
  }
  workers_.reserve(static_cast<size_t>(config_.worker_slots));
  for (int i = 0; i < config_.worker_slots; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::QueryService(const ServiceConfig& config,
                           std::shared_ptr<const DataFacade> facade)
    : QueryService(config, static_cast<const DataFacadeProvider*>(nullptr)) {
  facade_ = std::move(facade);
}

QueryService::QueryService(const ServiceConfig& config, const Database& db)
    : QueryService(config, static_cast<const DataFacadeProvider*>(nullptr)) {
  owned_provider_.Publish(db.Snapshot());
  provider_ = &owned_provider_;
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Graceful drain: everything still waiting is shed (resolved, never
    // lost); running statements finish on their workers below.
    std::vector<std::shared_ptr<QueryTicket::State>> waiting;
    waiting.swap(queue_);
    for (const auto& t : waiting) {
      t->in_queue = false;
      QueryOutcome out;
      out.disposition = QueryDisposition::kShed;
      out.status = Status::ResourceExhausted("shed: service shutting down");
      out.waited_in_queue = true;
      ResolveLocked(t, out.disposition, std::move(out.status));
    }
    work_ready_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
}

Session QueryService::OpenSession(SessionOptions options) {
  return Session(this, std::move(options));
}

ServiceCounters QueryService::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceCounters snapshot = counters_;
  snapshot.pool_bytes_in_use = pool_.used();
  snapshot.pool_peak_bytes = pool_.peak();
  return snapshot;
}

std::vector<double> QueryService::CompletedLatenciesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_latencies_ms_;
}

QueryTicket Session::Submit(const std::string& sql) const {
  return service_->SubmitInternal(options_, sql);
}

QueryOutcome Session::Execute(const std::string& sql) const {
  return Submit(sql).Wait();
}

void QueryService::ResolveLocked(
    const std::shared_ptr<QueryTicket::State>& t,
    QueryDisposition disposition, Status status) {
  QueryOutcome out;
  out.disposition = disposition;
  out.status = std::move(status);
  ResolveOutcomeLocked(t, std::move(out));
}

void QueryService::ResolveOutcomeLocked(
    const std::shared_ptr<QueryTicket::State>& t, QueryOutcome out) {
  if (t->resolved) return;
  t->resolved = true;
  t->service.store(nullptr, std::memory_order_release);
  double now = SteadyNowSeconds();
  out.total_ms = (now - t->submit_seconds) * 1e3;
  if (out.queue_ms == 0.0 &&
      (out.disposition == QueryDisposition::kShed ||
       out.disposition == QueryDisposition::kRejectedDeadline) &&
      out.waited_in_queue) {
    out.queue_ms = out.total_ms;
  }
  switch (out.disposition) {
    case QueryDisposition::kCompleted:
      ++counters_.completed;
      completed_latencies_ms_.push_back(out.total_ms);
      break;
    case QueryDisposition::kFailed:
      ++counters_.failed;
      break;
    case QueryDisposition::kShed:
      ++counters_.shed;
      break;
    case QueryDisposition::kRejectedQueueFull:
      ++counters_.rejected_queue_full;
      break;
    case QueryDisposition::kRejectedDeadline:
      ++counters_.rejected_deadline;
      break;
  }
  if (out.exec_ms > 0.0) {
    ema_exec_ms_ = ema_exec_ms_ == 0.0 ? out.exec_ms
                                       : 0.8 * ema_exec_ms_ + 0.2 * out.exec_ms;
  }
  {
    std::lock_guard<std::mutex> lock(t->mu);
    t->outcome = std::move(out);
    t->done = true;
  }
  t->cv.notify_all();
}

QueryTicket QueryService::SubmitInternal(const SessionOptions& session,
                                         const std::string& sql) {
  auto t = std::make_shared<QueryTicket::State>();
  t->sql = sql;
  t->session = session;
  double now = SteadyNowSeconds();
  t->submit_seconds = now;
  double deadline_ms = session.deadline_ms > 0.0
                           ? session.deadline_ms
                           : config_.default_deadline_ms;
  if (deadline_ms > 0.0) t->deadline_seconds = now + deadline_ms / 1e3;
  QueryTicket ticket(t);

  std::lock_guard<std::mutex> lock(mu_);
  t->seq = next_seq_++;
  t->service.store(this, std::memory_order_release);
  ++counters_.submitted;

  if (shutdown_) {
    ResolveLocked(t, QueryDisposition::kShed,
                  Status::ResourceExhausted("shed: service shutting down"));
    return ticket;
  }

  // Admission fault site: an injected fault resolves the submit with the
  // injected error (still exactly one resolution — nothing is lost).
  if (FaultInjector::Global().enabled()) {
    Status st = FaultInjector::Global().Maybe("admit");
    if (!st.ok()) {
      ResolveLocked(t, QueryDisposition::kFailed, std::move(st));
      return ticket;
    }
  }

  if (t->deadline_seconds > 0.0) {
    // Already expired at submit.
    if (now >= t->deadline_seconds) {
      ResolveLocked(t, QueryDisposition::kRejectedDeadline,
                    Status::ResourceExhausted(StringPrintf(
                        "deadline of %.3f ms already expired at submit",
                        deadline_ms)));
      return ticket;
    }
    // Predictably missed: with every slot busy, the expected wait behind
    // the current backlog (EMA of recent execution times) already blows
    // the deadline — reject now instead of letting it rot in the queue.
    if (ema_exec_ms_ > 0.0 && running_ >= config_.worker_slots) {
      double est_wait_ms = ema_exec_ms_ *
                           static_cast<double>(queue_.size() + 1) /
                           static_cast<double>(config_.worker_slots);
      if (now + est_wait_ms / 1e3 > t->deadline_seconds) {
        ResolveLocked(
            t, QueryDisposition::kRejectedDeadline,
            Status::ResourceExhausted(StringPrintf(
                "would miss its %.3f ms deadline in queue (estimated wait "
                "%.3f ms behind %zu waiter(s))",
                deadline_ms, est_wait_ms, queue_.size())));
        return ticket;
      }
    }
  }

  bool immediate = running_ < config_.worker_slots && queue_.empty();
  if (!immediate && config_.max_queue_depth > 0 &&
      queue_.size() >= config_.max_queue_depth) {
    // Overload: shed the newest lowest-priority waiter to admit strictly
    // higher-priority work; otherwise signal backpressure to the caller.
    size_t victim = queue_.size();
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i]->session.priority >= session.priority) continue;
      if (victim == queue_.size() ||
          queue_[i]->session.priority <
              queue_[victim]->session.priority ||
          (queue_[i]->session.priority ==
               queue_[victim]->session.priority &&
           queue_[i]->seq > queue_[victim]->seq)) {
        victim = i;
      }
    }
    Status shed_fault;
    if (victim < queue_.size() && FaultInjector::Global().enabled()) {
      shed_fault = FaultInjector::Global().Maybe("shed");
    }
    if (victim < queue_.size() && shed_fault.ok()) {
      std::shared_ptr<QueryTicket::State> shed = queue_[victim];
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(victim));
      shed->in_queue = false;
      QueryOutcome out;
      out.disposition = QueryDisposition::kShed;
      out.status = Status::ResourceExhausted(StringPrintf(
          "shed under overload: displaced by priority-%d work (own "
          "priority %d)",
          session.priority, shed->session.priority));
      out.waited_in_queue = true;
      ResolveOutcomeLocked(shed, std::move(out));
    } else {
      ResolveLocked(
          t, QueryDisposition::kRejectedQueueFull,
          Status::ResourceExhausted(StringPrintf(
              "admission queue full (%zu waiting%s): backpressure — retry "
              "with backoff",
              queue_.size(),
              shed_fault.ok() ? "" : ", shedding unavailable")));
      return ticket;
    }
  }

  t->in_queue = true;
  t->waited = !immediate;
  queue_.push_back(t);
  if (!immediate) ++counters_.queued;
  counters_.peak_queue_depth =
      std::max(counters_.peak_queue_depth,
               static_cast<int64_t>(queue_.size()));
  work_ready_.notify_one();
  return ticket;
}

void QueryService::CancelTicket(
    const std::shared_ptr<QueryTicket::State>& t,
    const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (t->resolved) return;
  std::string why = reason.empty() ? "query cancelled" : reason;
  if (t->in_queue) {
    auto it = std::find(queue_.begin(), queue_.end(), t);
    if (it != queue_.end()) queue_.erase(it);
    t->in_queue = false;
    ResolveLocked(t, QueryDisposition::kFailed, Status::Cancelled(why));
    return;
  }
  if (t->governor != nullptr) {
    t->governor->Cancel(why);
    return;
  }
  // Not yet picked up (or between dequeue and governor creation): the
  // worker honours the flag before execution.
  t->cancel_requested = true;
  t->cancel_reason = why;
}

std::shared_ptr<QueryTicket::State> QueryService::DequeueLocked() {
  double now = SteadyNowSeconds();
  // Deadline sweep: waiters whose deadline expired in the queue resolve
  // immediately instead of burning a slot on a dead answer.
  for (auto it = queue_.begin(); it != queue_.end();) {
    QueryTicket::State& s = **it;
    if (s.deadline_seconds > 0.0 && now > s.deadline_seconds) {
      std::shared_ptr<QueryTicket::State> expired = *it;
      it = queue_.erase(it);
      expired->in_queue = false;
      QueryOutcome out;
      out.disposition = QueryDisposition::kRejectedDeadline;
      out.status = Status::ResourceExhausted(StringPrintf(
          "deadline expired after %.3f ms in the admission queue",
          (now - expired->submit_seconds) * 1e3));
      out.waited_in_queue = true;
      ResolveOutcomeLocked(expired, std::move(out));
      continue;
    }
    ++it;
  }
  if (queue_.empty()) return nullptr;
  // Highest priority first; FIFO (lowest seq) within a priority.
  size_t best = 0;
  for (size_t i = 1; i < queue_.size(); ++i) {
    int pi = queue_[i]->session.priority;
    int pb = queue_[best]->session.priority;
    if (pi > pb || (pi == pb && queue_[i]->seq < queue_[best]->seq)) {
      best = i;
    }
  }
  std::shared_ptr<QueryTicket::State> t = queue_[best];
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best));
  t->in_queue = false;
  return t;
}

void QueryService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::shared_ptr<QueryTicket::State> t = DequeueLocked();
    if (t == nullptr) {
      if (shutdown_) return;
      work_ready_.wait(lock);
      continue;
    }
    ++running_;
    counters_.peak_running =
        std::max(counters_.peak_running, static_cast<int64_t>(running_));
    ++counters_.admitted;
    double now = SteadyNowSeconds();
    double queue_ms = (now - t->submit_seconds) * 1e3;
    // Effective execution limits: session overrides service defaults, and
    // the governor deadline is the time *remaining* until the end-to-end
    // deadline — queue wait already spent part of the budget.
    GovernorLimits limits = t->session.limits.any()
                                ? t->session.limits
                                : config_.default_limits;
    if (t->deadline_seconds > 0.0) {
      double remaining_ms = (t->deadline_seconds - now) * 1e3;
      if (remaining_ms < 0.01) remaining_ms = 0.01;
      limits.timeout_ms = limits.timeout_ms > 0.0
                              ? std::min(limits.timeout_ms, remaining_ms)
                              : remaining_ms;
    }
    t->governor = std::make_shared<QueryGovernor>(limits);
    t->governor->set_parent_pool(&pool_);
    if (t->cancel_requested) t->governor->Cancel(t->cancel_reason);
    lock.unlock();
    Execute(t, queue_ms);
    lock.lock();
    --running_;
    // Drop the governor before resolving: its destructor credits every
    // outstanding byte back to the global pool, so the moment the last
    // ticket resolves the pool reads exactly zero.
    QueryOutcome out = std::move(t->staged_outcome);
    t->governor.reset();
    ResolveOutcomeLocked(t, std::move(out));
  }
}

void QueryService::Execute(const std::shared_ptr<QueryTicket::State>& t,
                           double queue_ms) {
  QueryOutcome out;
  out.queue_ms = queue_ms;
  out.waited_in_queue = t->waited;
  // exec_ms covers the worker's whole occupancy — including the
  // on_execute test hook, so instrumented delays feed the EMA that drives
  // predictive deadline rejection.
  double start = SteadyNowSeconds();
  if (config_.on_execute) config_.on_execute(t->sql, t->session.priority);
  std::shared_ptr<const DataFacade> facade =
      provider_ != nullptr ? provider_->Acquire() : facade_;
  ExecStats stats;
  Result<QueryResult> result =
      facade == nullptr
          ? Result<QueryResult>(
                Status::Internal("query service has no published facade"))
          : QueryFacade(*facade, t->sql, config_.planner, &stats,
                        t->governor.get());
  out.exec_ms = (SteadyNowSeconds() - start) * 1e3;
  if (out.exec_ms <= 0.0) out.exec_ms = 1e-3;  // clock-resolution floor
  out.rows_scanned = stats.rows_scanned;
  out.generation = facade != nullptr ? facade->generation() : 0;
  if (result.ok()) {
    out.disposition = QueryDisposition::kCompleted;
    out.result = std::move(*result);
  } else {
    out.disposition = QueryDisposition::kFailed;
    out.status = result.status();
  }
  t->staged_outcome = std::move(out);
}

}  // namespace tpcds
