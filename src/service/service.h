#ifndef TPCDS_SERVICE_SERVICE_H_
#define TPCDS_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/data_facade.h"
#include "engine/database.h"
#include "engine/governor.h"
#include "engine/plan.h"
#include "util/status.h"

namespace tpcds {

/// Terminal disposition of one submitted statement. Every Submit resolves
/// to exactly one of these — the no-lost-queries invariant the overload
/// drills assert is
///
///   completed + failed + shed + rejected_queue_full + rejected_deadline
///     == submitted
enum class QueryDisposition {
  /// Admitted, executed, returned rows.
  kCompleted,
  /// Admitted but execution returned an error (budget trip, injected
  /// fault, cancellation) — retryable by the caller.
  kFailed,
  /// Dropped from the admission queue under overload to let
  /// higher-priority work through (or at service shutdown). Never applies
  /// to a running query: admitted work always finishes.
  kShed,
  /// Rejected at submit because the admission queue was full and no
  /// lower-priority victim existed — the backpressure signal; callers
  /// should back off before retrying.
  kRejectedQueueFull,
  /// Rejected because the per-tenant deadline expired in the queue (or
  /// predictably would, given the current backlog) — failing fast beats
  /// burning a worker slot on an answer nobody is waiting for.
  kRejectedDeadline,
};

const char* QueryDispositionToString(QueryDisposition d);

/// Per-session admission parameters.
struct SessionOptions {
  std::string tenant = "default";
  /// Higher runs first and sheds last; under overload the newest
  /// lowest-priority queued statement is dropped first.
  int priority = 0;
  /// End-to-end deadline per statement (queue wait + execution), measured
  /// from Submit. 0 falls back to ServiceConfig::default_deadline_ms.
  double deadline_ms = 0.0;
  /// Per-query execution limits; all-zero falls back to
  /// ServiceConfig::default_limits.
  GovernorLimits limits;
};

/// Everything known about one resolved statement.
struct QueryOutcome {
  QueryDisposition disposition = QueryDisposition::kFailed;
  Status status;  // OK iff disposition == kCompleted
  QueryResult result;
  /// True when the statement waited in the admission queue before running
  /// (false for immediate admission and for submit-time rejections).
  bool waited_in_queue = false;
  double queue_ms = 0.0;  // time between Submit and slot grant / rejection
  double exec_ms = 0.0;   // executor wall time (0 unless admitted)
  double total_ms = 0.0;  // Submit to resolution
  int64_t rows_scanned = 0;
  /// Generation of the dataset facade the query pinned (0 unless
  /// admitted) — under a mid-run hot-swap each query reads exactly one.
  uint64_t generation = 0;
};

/// Monotonic service telemetry, snapshot under one mutex so the balance
/// invariant holds at every observation point.
struct ServiceCounters {
  int64_t submitted = 0;
  int64_t admitted = 0;  // granted a worker slot (immediately or queued)
  int64_t queued = 0;    // entered the wait queue (whatever the final fate)
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_deadline = 0;
  int64_t peak_queue_depth = 0;
  int64_t peak_running = 0;
  int64_t pool_bytes_in_use = 0;  // global memory pool at snapshot time
  int64_t pool_peak_bytes = 0;

  /// The no-lost-queries invariant.
  bool Balanced() const {
    return completed + failed + shed + rejected_queue_full +
               rejected_deadline ==
           submitted;
  }
  /// The drained-pool invariant: every reservation charged to the global
  /// memory pool was released by the time the counters were snapshotted.
  bool PoolDrained() const { return pool_bytes_in_use == 0; }
  std::string ToString() const;
};

/// Configuration of one QueryService instance.
struct ServiceConfig {
  /// Concurrent statement executions (the concurrency pool). Queries
  /// beyond this wait in the admission queue.
  int worker_slots = 2;
  /// Bound of the admission queue; a submit finding it full either sheds
  /// a lower-priority waiter or is rejected (backpressure). 0 = unbounded.
  size_t max_queue_depth = 64;
  /// Capacity of the global memory pool every admitted query's governor
  /// charges (per-session reservations roll up here). 0 = unlimited.
  int64_t global_memory_budget_bytes = 0;
  /// Default end-to-end deadline per statement; 0 = none.
  double default_deadline_ms = 0.0;
  /// Default per-query execution limits for sessions that set none.
  GovernorLimits default_limits;
  /// Planner options statements execute with (per-query limit fields are
  /// superseded by the governor the service builds). Parallelism 0 (the
  /// default) resolves to the slot's share of the cores, hardware cores /
  /// worker_slots (at least 1).
  PlannerOptions planner;
  /// Test instrumentation: invoked by the worker right before executing a
  /// statement (no locks held). Lets tests hold worker slots occupied at
  /// a barrier to make admission states deterministic.
  std::function<void(const std::string& sql, int priority)> on_execute;
};

class QueryService;

/// Handle to one submitted statement; cheap to copy. Wait() blocks until
/// the service resolves it (valid even after the service is destroyed —
/// shutdown resolves everything first).
class QueryTicket {
 public:
  QueryTicket() = default;

  /// Blocks until resolved; the outcome reference stays valid for the
  /// ticket's lifetime.
  const QueryOutcome& Wait() const;
  bool Done() const;

  /// Cancels: a queued statement resolves kFailed/kCancelled without
  /// running; a running one trips its governor at the next morsel
  /// boundary. Requires the service to still be alive.
  void Cancel(const std::string& reason) const;

 private:
  friend class QueryService;
  struct State;
  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// One client's connection to the service: remembers tenant, priority and
/// limits, and stamps them on every submitted statement.
class Session {
 public:
  /// Enqueues the statement for admission; never blocks on execution.
  QueryTicket Submit(const std::string& sql) const;
  /// Submit + Wait.
  QueryOutcome Execute(const std::string& sql) const;

  const SessionOptions& options() const { return options_; }

 private:
  friend class QueryService;
  Session(QueryService* service, SessionOptions options)
      : service_(service), options_(std::move(options)) {}
  QueryService* service_;
  SessionOptions options_;
};

/// A concurrent in-process query service: many sessions submit SQL that a
/// bounded worker pool multiplexes onto the morsel-parallel executor
/// against pinned DataFacade generations, behind real admission control —
/// global memory and concurrency pools, a bounded priority admission
/// queue with per-tenant deadlines, backpressure when the queue is full,
/// and graceful newest-low-priority-first shedding under overload so
/// admitted queries always finish. See docs/SERVICE.md.
class QueryService {
 public:
  /// Serves queries from whatever generation `provider` currently
  /// publishes; each admitted statement acquires the facade once and pins
  /// it for its whole execution (hot-swap safe). The provider must
  /// outlive the service and have published at least one generation.
  QueryService(const ServiceConfig& config,
               const DataFacadeProvider* provider);
  /// Convenience: serves a single pinned generation.
  QueryService(const ServiceConfig& config,
               std::shared_ptr<const DataFacade> facade);
  /// Convenience: pins a snapshot of `db` at construction.
  QueryService(const ServiceConfig& config, const Database& db);

  /// Stops admission, sheds every queued statement (kShed, "service
  /// shutting down"), lets running queries finish, joins the workers.
  /// Every ticket ever submitted is resolved when this returns.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  Session OpenSession(SessionOptions options = {});

  /// Consistent telemetry snapshot (balance invariant holds).
  ServiceCounters Counters() const;

  /// Client-observed total latencies (ms) of completed statements, for
  /// percentile reporting.
  std::vector<double> CompletedLatenciesMs() const;

  /// The global admission-control memory pool (drains to zero when no
  /// query is in flight).
  ResourcePool& memory_pool() { return pool_; }

  const ServiceConfig& config() const { return config_; }

 private:
  friend class Session;
  friend class QueryTicket;

  QueryTicket SubmitInternal(const SessionOptions& session,
                             const std::string& sql);
  void WorkerLoop();
  /// Picks the next runnable ticket (highest priority, oldest first),
  /// resolving deadline-expired waiters along the way; nullptr when the
  /// queue has no runnable work. Caller holds mu_.
  std::shared_ptr<QueryTicket::State> DequeueLocked();
  /// Resolves a ticket (exactly once) and updates counters. Caller holds
  /// mu_.
  void ResolveLocked(const std::shared_ptr<QueryTicket::State>& t,
                     QueryDisposition disposition, Status status);
  void ResolveOutcomeLocked(const std::shared_ptr<QueryTicket::State>& t,
                            QueryOutcome out);
  void CancelTicket(const std::shared_ptr<QueryTicket::State>& t,
                    const std::string& reason);
  void Execute(const std::shared_ptr<QueryTicket::State>& t,
               double queue_ms);

  ServiceConfig config_;
  const DataFacadeProvider* provider_;       // one of provider_/facade_ set
  std::shared_ptr<const DataFacade> facade_;  // pinned-generation mode
  DataFacadeProvider owned_provider_;         // backs the Database ctor

  ResourcePool pool_;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::vector<std::shared_ptr<QueryTicket::State>> queue_;
  ServiceCounters counters_;
  std::vector<double> completed_latencies_ms_;
  double ema_exec_ms_ = 0.0;  // drives predictive deadline rejection
  uint64_t next_seq_ = 0;
  int running_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace tpcds

#endif  // TPCDS_SERVICE_SERVICE_H_
