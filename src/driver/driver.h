#ifndef TPCDS_DRIVER_DRIVER_H_
#define TPCDS_DRIVER_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "driver/profile.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "maintenance/maintenance.h"
#include "metric/metric.h"
#include "service/service.h"
#include "util/result.h"

namespace tpcds {

/// Configuration of a full benchmark execution (paper §5.2, Fig. 11):
/// load test -> Query Run 1 -> Data Maintenance -> Query Run 2.
struct BenchmarkConfig {
  double scale_factor = 0.01;
  /// Concurrent query streams; 0 selects the scale factor's minimum
  /// (paper Fig. 12).
  int streams = 0;
  uint64_t seed = 19620718;
  PlannerOptions planner;
  /// Queries per stream per run; the full benchmark runs all 99, smaller
  /// values give quick development runs (not metric-valid).
  int queries_per_stream = kQueriesPerRun;
  /// Refresh volume of the data-maintenance run.
  double refresh_fraction = 0.01;
  int64_t dimension_updates = 50;
  /// Stream isolation: attempts per work item (query or maintenance run)
  /// before it is recorded in the FailureReport. 1 = no retries.
  int max_query_attempts = 3;
  /// Base of the jittered exponential backoff between attempts
  /// (base * 2^(attempt-1), scaled by a deterministic jitter in [0.5, 1.5)).
  double retry_backoff_ms = 10.0;
  /// Durability mode. With a checkpoint directory, the loaded database is
  /// checkpointed right after the load test. With a WAL path, the data
  /// maintenance run writes through a WAL — each refresh operation commits
  /// individually, and the run is NOT retried on failure (a retry would
  /// re-apply committed operations; the crash-consistent state is what
  /// recovery replays). Empty strings turn both off.
  std::string checkpoint_dir;
  std::string wal_path;
  /// After data maintenance, recover a second database from checkpoint +
  /// WAL and verify it is byte-identical (content hash) to the live one.
  /// Requires checkpoint_dir; the result is recorded in the report.
  bool recover_verify = false;
  /// Overlap Query Run 2 with Data Maintenance. DM builds a copy-on-write
  /// generation off the main thread and publishes it with one atomic swap;
  /// QR2 streams acquire their facade per query from the provider, so each
  /// query reads exactly one generation (pre- or post-swap, never a mix).
  /// T_QR2 and T_DM then measure concurrent wall-clock intervals.
  bool overlap_dm_qr2 = false;
  /// Query-service admission control for the query runs. Every query run
  /// routes its S streams through a QueryService: S real client threads,
  /// each opening its own session and submitting statements that a
  /// bounded worker pool multiplexes onto the executor. The defaults keep
  /// the classical execution-rules behaviour — one worker slot per
  /// stream, an unbounded admission queue, no global memory pool — so
  /// admission only queues/sheds/rejects when these are tightened.
  int service_worker_slots = 0;             // 0 = one slot per stream
  size_t service_queue_depth = 0;           // 0 = unbounded
  int64_t service_memory_budget_bytes = 0;  // 0 = no global pool cap
  double service_deadline_ms = 0.0;  // end-to-end per statement; 0 = none
  /// Spread streams over N priority classes (stream % N); 0 = all equal.
  /// Priorities only matter under overload (a full queue sheds the
  /// newest strictly-lower-priority waiter), so the default changes
  /// nothing in classical runs.
  int service_priority_spread = 0;
  /// Workload profile (see driver/profile.h): bind-variable skew,
  /// template mix ratios, session chains and the read/refresh duty
  /// cycle. The default ("uniform") reproduces the classical benchmark
  /// byte for byte. A refresh duty cycle only takes effect with
  /// overlap_dm_qr2 (the classical serialized DM phase has no live
  /// streams to interleave with).
  WorkloadProfile profile;
};

/// One executed query instance.
struct QueryExecution {
  int template_id = 0;
  int stream = 0;
  double seconds = 0.0;
  int64_t result_rows = 0;
  int attempts = 1;  // attempts needed to succeed, including the first
};

/// Everything measured during one benchmark execution.
struct BenchmarkResult {
  double scale_factor = 0.0;
  int streams = 0;
  double t_load_sec = 0.0;
  double t_qr1_sec = 0.0;
  double t_dm_sec = 0.0;
  double t_qr2_sec = 0.0;
  std::vector<QueryExecution> qr1_queries;
  std::vector<QueryExecution> qr2_queries;
  MaintenanceReport dm_report;
  /// Work items that exhausted their retries, per phase. Failures no
  /// longer abort the run: the failing stream records and proceeds.
  FailureReport failures;
  /// Durability phases (populated only when the config enables them).
  bool checkpoint_taken = false;
  double t_checkpoint_sec = 0.0;
  bool recovery_ran = false;
  bool recovery_verified = false;
  RecoveryReport recovery;
  /// Generation bookkeeping (facade hot-swap): generation ids before and
  /// after data maintenance and the number of atomic swaps published.
  uint64_t generation_before = 0;
  uint64_t generation_after = 0;
  int generation_swaps = 0;
  /// Query-service telemetry merged over both query runs (counters sum;
  /// peaks take the max) plus every completed statement's client-observed
  /// latency, for the report's p50/p95/p99.
  ServiceCounters service;
  std::vector<double> service_latencies_ms;
  /// Canonical spec of the workload profile the run executed under.
  std::string workload_profile;

  MetricInputs ToMetricInputs() const {
    MetricInputs in;
    in.workload_profile = workload_profile;
    in.scale_factor = scale_factor;
    in.streams = streams;
    in.t_load_sec = t_load_sec;
    in.t_qr1_sec = t_qr1_sec;
    in.t_dm_sec = t_dm_sec;
    in.t_qr2_sec = t_qr2_sec;
    in.failed_queries = static_cast<int>(failures.failures.size());
    in.recovery_phases = (checkpoint_taken ? 1 : 0) + (recovery_ran ? 1 : 0);
    in.t_checkpoint_sec = t_checkpoint_sec;
    in.t_recovery_sec = recovery.seconds;
    in.recovery_verified = recovery_verified;
    in.generation_swaps = generation_swaps;
    in.final_generation = generation_after;
    in.service_used = service.submitted > 0;
    in.service_submitted = service.submitted;
    in.service_admitted = service.admitted;
    in.service_queued = service.queued;
    in.service_completed = service.completed;
    in.service_failed = service.failed;
    in.service_shed = service.shed;
    in.service_rejected_queue_full = service.rejected_queue_full;
    in.service_rejected_deadline = service.rejected_deadline;
    LatencySummary lat = SummarizeLatenciesMs(service_latencies_ms);
    in.latency_p50_ms = lat.p50_ms;
    in.latency_p95_ms = lat.p95_ms;
    in.latency_p99_ms = lat.p99_ms;
    in.latency_count = lat.count;
    return in;
  }
};

/// Runs the complete benchmark on a fresh in-process database. When `db`
/// is supplied it must be empty (RunBenchmark owns the timed load;
/// pre-loaded tables would corrupt T_Load and the refresh bookkeeping) —
/// a non-empty database fails fast with InvalidArgument. The caller keeps
/// access to the loaded database afterwards; otherwise an internal one is
/// used and discarded.
Result<BenchmarkResult> RunBenchmark(const BenchmarkConfig& config,
                                     Database* db = nullptr);

/// The timed database-load test alone (paper §5.2): table creation, data
/// generation + load, constraint validation.
Result<double> RunLoadTest(const BenchmarkConfig& config, Database* db);

/// One query run: S streams, each executing its own permutation of the 99
/// templates with stream-specific substitutions. `stream_base` offsets the
/// stream ids so Query Run 2 uses different substitutions than Run 1.
///
/// The run routes through a QueryService: S real client threads, one
/// session each, submit their statements to a worker pool behind
/// admission control (config.service_* tunes slots / queue depth / global
/// memory pool / per-tenant deadline). With a non-null
/// `service_counters` / `latencies_ms` the run's admission telemetry and
/// completed-statement latencies are merged into them.
///
/// With a non-null `failures`, failed queries are retried up to
/// config.max_query_attempts times with jittered exponential backoff and
/// then recorded under `phase` while the stream moves on — no failure
/// stops another stream. With a null `failures` the legacy behaviour
/// holds: the first error aborts the run.
///
/// With a non-null `provider`, every query acquires the currently
/// published facade generation from it instead of snapshotting `db` —
/// this is how QR2 runs safely while data maintenance swaps generations
/// underneath it (each query pins exactly one generation for its whole
/// execution).
Result<double> RunQueryRun(const BenchmarkConfig& config, Database* db,
                           int stream_base,
                           std::vector<QueryExecution>* executions,
                           FailureReport* failures = nullptr,
                           const std::string& phase = "qr",
                           const DataFacadeProvider* provider = nullptr,
                           ServiceCounters* service_counters = nullptr,
                           std::vector<double>* latencies_ms = nullptr);

/// Outcome of the historical single-user "power test" that TPC-DS
/// deliberately dropped (paper §5.3): queries run sequentially and the
/// metric is a geometric mean of elapsed times.
struct PowerTestResult {
  double arithmetic_mean_sec = 0.0;
  double geometric_mean_sec = 0.0;
  double total_sec = 0.0;
  std::vector<QueryExecution> queries;
};

/// Runs the legacy TPC-H-style power test on an already loaded database —
/// kept for the §5.3 comparison (geometric vs. arithmetic weighting), not
/// part of the TPC-DS metric.
Result<PowerTestResult> RunPowerTest(const BenchmarkConfig& config,
                                     Database* db);

}  // namespace tpcds

#endif  // TPCDS_DRIVER_DRIVER_H_
