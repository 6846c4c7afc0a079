#include "driver/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "engine/audit.h"
#include "schema/schema.h"

#include "qgen/qgen.h"
#include "scaling/scaling.h"
#include "templates/templates.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// Jittered exponential backoff before retry `attempt` (1-based count of
/// attempts already made): base * 2^(attempt-1), scaled by a jitter in
/// [0.5, 1.5) drawn from the caller's own seeded stream. Each stream owns
/// one RngStream seeded from (config seed, stream id), so its retry
/// schedule is a pure function of its own retry history — deterministic
/// per stream and independent of how other streams interleave.
void BackoffBeforeRetry(double base_ms, int attempt, RngStream* jitter_rng) {
  if (base_ms <= 0.0) return;
  double factor = static_cast<double>(1u << std::min(attempt - 1, 10));
  double jitter = 0.5 + jitter_rng->NextDouble();
  double sleep_ms = base_ms * factor * jitter;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      sleep_ms));
}

/// Seed tag for per-stream retry-jitter streams (distinct from the
/// 777/778/779 qgen permutation tags).
constexpr uint64_t kRetryJitterTag = 781;

/// Merges one query run's service telemetry into the benchmark-level
/// accumulator: monotonic counters sum, high-water marks take the max.
void MergeServiceCounters(ServiceCounters* into, const ServiceCounters& c) {
  into->submitted += c.submitted;
  into->admitted += c.admitted;
  into->queued += c.queued;
  into->completed += c.completed;
  into->failed += c.failed;
  into->shed += c.shed;
  into->rejected_queue_full += c.rejected_queue_full;
  into->rejected_deadline += c.rejected_deadline;
  into->peak_queue_depth = std::max(into->peak_queue_depth,
                                    c.peak_queue_depth);
  into->peak_running = std::max(into->peak_running, c.peak_running);
  into->pool_bytes_in_use =
      std::max(into->pool_bytes_in_use, c.pool_bytes_in_use);
  into->pool_peak_bytes = std::max(into->pool_peak_bytes, c.pool_peak_bytes);
}

}  // namespace

Result<double> RunLoadTest(const BenchmarkConfig& config, Database* db) {
  // Untimed preparation would live here (creating the database instance);
  // the timed portion covers table creation, load and constraint
  // validation, per the execution rules. Join indexes are not built here:
  // an index join builds the one it probes on first use.
  Stopwatch timer;
  TPCDS_RETURN_NOT_OK(db->CreateTpcdsTables());
  GeneratorOptions gen;
  gen.scale_factor = config.scale_factor;
  gen.master_seed = config.seed;
  TPCDS_RETURN_NOT_OK(db->LoadTpcdsData(gen));
  // "Define and validate constraints" is part of the timed load (§5.2).
  TPCDS_ASSIGN_OR_RETURN(AuditReport audit,
                         ValidateConstraints(db, TpcdsSchema()));
  if (audit.TotalViolations() != 0) {
    return Status::Internal(
        "constraint validation failed during load:\n" + audit.ToString());
  }
  return timer.ElapsedSeconds();
}

Result<double> RunQueryRun(const BenchmarkConfig& config, Database* db,
                           int stream_base,
                           std::vector<QueryExecution>* executions,
                           FailureReport* failures,
                           const std::string& phase,
                           const DataFacadeProvider* provider,
                           ServiceCounters* service_counters,
                           std::vector<double>* latencies_ms) {
  const std::vector<QueryTemplate>& templates = AllTemplates();
  QueryGenerator qgen(config.seed);
  int streams = config.streams > 0
                    ? config.streams
                    : ScalingModel::MinimumStreams(config.scale_factor);
  int max_attempts = std::max(1, config.max_query_attempts);
  // A non-classical bind profile switches the stream from the fixed
  // template permutation to the profile-driven sequence (mix weights,
  // session chains) with skewed substitution draws. The default profile
  // keeps this false and the run byte-identical to the classical path.
  const BindProfile& bind = config.profile.bind;
  bool profiled =
      !bind.uniform() || bind.chain_length > 1 ||
      !(bind.adhoc_weight == bind.reporting_weight &&
        bind.hybrid_weight == bind.adhoc_weight);

  // The service the run's streams submit through. Defaults preserve the
  // classical execution rules (every stream always runs: one worker slot
  // per stream, unbounded queue, no pool cap, no deadline); the
  // config.service_* knobs turn on real admission control.
  ServiceConfig svc;
  svc.worker_slots = config.service_worker_slots > 0
                         ? config.service_worker_slots
                         : streams;
  svc.max_queue_depth = config.service_queue_depth;
  svc.global_memory_budget_bytes = config.service_memory_budget_bytes;
  svc.default_deadline_ms = config.service_deadline_ms;
  svc.planner = config.planner;
  svc.default_limits.timeout_ms = config.planner.timeout_ms;
  svc.default_limits.memory_budget_bytes = config.planner.memory_budget_bytes;
  svc.default_limits.row_budget = config.planner.row_budget;

  std::mutex mu;
  Status first_error;
  Stopwatch timer;
  {
    // With a provider, every admitted statement acquires the published
    // facade and pins it for the query's whole lifetime — QR2 can overlap
    // data maintenance's generation swaps. Otherwise the service pins one
    // snapshot of the (read-only during a query run) live database.
    std::unique_ptr<QueryService> service =
        provider != nullptr
            ? std::make_unique<QueryService>(svc, provider)
            : std::make_unique<QueryService>(svc, *db);
    // S real client threads, one session each — a genuine multi-stream
    // run, not a simulated one: every stream is a concurrent client of
    // the shared service.
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(streams));
    for (int s = 0; s < streams; ++s) {
      int stream_id = stream_base + s;
      SessionOptions session_options;
      session_options.tenant = "stream-" + std::to_string(stream_id);
      if (config.service_priority_spread > 0) {
        session_options.priority =
            stream_id % config.service_priority_spread;
      }
      Session session = service->OpenSession(session_options);
      clients.emplace_back([&, stream_id, session] {
        // Classical path: family-aware order — iterative-OLAP drill
        // sequences run as contiguous sessions inside the stream (paper
        // §4.1). Profiled path: the mix-weighted sequence, with session
        // chains expanded in place.
        std::vector<ProfileSlot> slots;
        if (profiled) {
          slots = qgen.ProfileSequence(stream_id, templates, bind,
                                       config.queries_per_stream);
        } else {
          std::vector<int> order =
              qgen.StreamPermutation(stream_id, templates);
          int to_run = std::min<int>(config.queries_per_stream,
                                     static_cast<int>(order.size()));
          for (int k = 0; k < to_run; ++k) {
            slots.push_back(
                ProfileSlot{order[static_cast<size_t>(k)], -1, 0});
          }
        }
        RngStream retry_rng(DeriveSeed(config.seed, kRetryJitterTag,
                                       static_cast<uint64_t>(stream_id)));
        for (const ProfileSlot& slot : slots) {
          const QueryTemplate& tmpl =
              templates[static_cast<size_t>(slot.template_index)];
          Result<std::string> sql =
              qgen.Instantiate(tmpl, stream_id, /*iteration=*/0,
                               profiled ? &bind : nullptr, slot.chain_step);
          if (!sql.ok()) {
            // Instantiation is deterministic — retrying cannot help.
            std::lock_guard<std::mutex> lock(mu);
            if (failures != nullptr) {
              failures->failures.push_back(QueryFailure{
                  tmpl.id, stream_id, 1, phase, sql.status().message()});
              continue;
            }
            if (first_error.ok()) first_error = sql.status();
            return;
          }
          // Stream isolation: transient failures (injected faults, budget
          // trips, a shed or backpressured submission) are retried with
          // backoff — exactly what a client should do on
          // kResourceExhausted; an exhausted retry budget lands in the
          // FailureReport and the stream moves to its next query — no
          // failure stops another stream.
          auto run_query = [&]() -> Result<QueryResult> {
            QueryOutcome out = session.Execute(*sql);
            if (out.disposition == QueryDisposition::kCompleted) {
              return std::move(out.result);
            }
            return out.status;
          };
          Stopwatch query_timer;
          Result<QueryResult> result = run_query();
          int attempts = 1;
          while (!result.ok() && failures != nullptr &&
                 attempts < max_attempts) {
            BackoffBeforeRetry(config.retry_backoff_ms, attempts,
                               &retry_rng);
            result = run_query();
            ++attempts;
          }
          if (!result.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            if (failures != nullptr) {
              failures->total_retries += attempts - 1;
              failures->failures.push_back(
                  QueryFailure{tmpl.id, stream_id, attempts, phase,
                               result.status().message()});
              continue;
            }
            if (first_error.ok()) {
              first_error = Status(
                  result.status().code(),
                  tmpl.name + " (stream " + std::to_string(stream_id) +
                      "): " + result.status().message());
            }
            return;
          }
          QueryExecution exec;
          exec.template_id = tmpl.id;
          exec.stream = stream_id;
          exec.seconds = query_timer.ElapsedSeconds();
          exec.result_rows = static_cast<int64_t>(result->rows.size());
          exec.attempts = attempts;
          std::lock_guard<std::mutex> lock(mu);
          if (failures != nullptr) failures->total_retries += attempts - 1;
          executions->push_back(exec);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    if (service_counters != nullptr) {
      MergeServiceCounters(service_counters, service->Counters());
    }
    if (latencies_ms != nullptr) {
      std::vector<double> lat = service->CompletedLatenciesMs();
      latencies_ms->insert(latencies_ms->end(), lat.begin(), lat.end());
    }
  }
  TPCDS_RETURN_NOT_OK(first_error);
  return timer.ElapsedSeconds();
}

Result<PowerTestResult> RunPowerTest(const BenchmarkConfig& config,
                                     Database* db) {
  const std::vector<QueryTemplate>& templates = AllTemplates();
  QueryGenerator qgen(config.seed);
  PowerTestResult result;
  int to_run = std::min<int>(config.queries_per_stream,
                             static_cast<int>(templates.size()));
  double log_sum = 0.0;
  Stopwatch total_timer;
  for (int k = 0; k < to_run; ++k) {
    const QueryTemplate& tmpl = templates[static_cast<size_t>(k)];
    TPCDS_ASSIGN_OR_RETURN(std::string sql, qgen.Instantiate(tmpl, 0));
    Stopwatch timer;
    TPCDS_ASSIGN_OR_RETURN(QueryResult qr, db->Query(sql, config.planner));
    QueryExecution exec;
    exec.template_id = tmpl.id;
    exec.stream = 0;
    exec.seconds = timer.ElapsedSeconds();
    exec.result_rows = static_cast<int64_t>(qr.rows.size());
    // Guard the geometric mean against sub-microsecond timings.
    log_sum += std::log(std::max(exec.seconds, 1e-6));
    result.queries.push_back(exec);
  }
  result.total_sec = total_timer.ElapsedSeconds();
  if (to_run > 0) {
    result.arithmetic_mean_sec = result.total_sec / to_run;
    result.geometric_mean_sec = std::exp(log_sum / to_run);
  }
  return result;
}

Result<BenchmarkResult> RunBenchmark(const BenchmarkConfig& config,
                                     Database* db) {
  std::unique_ptr<Database> owned;
  if (db == nullptr) {
    owned = std::make_unique<Database>();
    db = owned.get();
  } else if (!db->TableNames().empty()) {
    // The benchmark owns the timed load (Fig. 11); running it against a
    // pre-loaded database would double-load tables, corrupt T_Load, and
    // desynchronise the refresh bookkeeping. Fail fast instead of
    // producing a silently invalid result.
    return Status::InvalidArgument(StringPrintf(
        "RunBenchmark requires an empty database, but %zu table(s) already "
        "exist; pass a fresh Database (or nullptr to use an internal one)",
        db->TableNames().size()));
  }
  BenchmarkResult result;
  result.scale_factor = config.scale_factor;
  result.streams = config.streams > 0
                       ? config.streams
                       : ScalingModel::MinimumStreams(config.scale_factor);
  result.workload_profile = config.profile.ToString();
  int max_attempts = std::max(1, config.max_query_attempts);

  // Fig. 11: Database Load Test.
  TPCDS_ASSIGN_OR_RETURN(result.t_load_sec, RunLoadTest(config, db));

  // Durability: checkpoint the freshly loaded state. A failed checkpoint
  // is recorded (phase "checkpoint") and recovery is skipped later; the
  // benchmark itself proceeds — durability is an overlay on Fig. 11, not
  // one of its timed intervals.
  if (!config.checkpoint_dir.empty()) {
    Stopwatch ckpt_timer;
    Status saved = db->SaveCheckpoint(config.checkpoint_dir);
    result.t_checkpoint_sec = ckpt_timer.ElapsedSeconds();
    if (saved.ok()) {
      result.checkpoint_taken = true;
    } else {
      result.failures.failures.push_back(
          QueryFailure{0, -1, 1, "checkpoint", saved.message()});
    }
  }

  // Query Run 1: streams 1..S.
  TPCDS_ASSIGN_OR_RETURN(
      result.t_qr1_sec,
      RunQueryRun(config, db, /*stream_base=*/1, &result.qr1_queries,
                  &result.failures, "qr1", /*provider=*/nullptr,
                  &result.service, &result.service_latencies_ms));

  // Data Maintenance run — always via the copy-on-write generation path:
  // the workload mutates a forked build generation and publishes it with
  // one atomic table-map swap. Without a WAL, a failed run discards the
  // fork (the live database never sees partial state), so each retry
  // starts from a clean slate; an exhausted retry budget is recorded
  // (phase "dm") and the benchmark proceeds to Query Run 2 against the
  // un-refreshed data — reported, not metric-valid. With a WAL attached,
  // operations commit individually, the committed prefix IS published,
  // and the run is NOT retried: a retry would re-apply committed
  // operations, and the crash-consistent state (the committed prefix) is
  // exactly what the recovery phase verifies.
  result.generation_before = db->generation();
  MaintenanceOptions dm;
  dm.seed = config.seed;
  dm.scale_factor = config.scale_factor;
  dm.refresh_cycle = 1;
  dm.refresh_fraction = config.refresh_fraction;
  dm.dimension_updates = config.dimension_updates;

  struct DmOutcome {
    double seconds = 0.0;
    std::vector<QueryFailure> failures;
    int64_t retries = 0;
  };
  // Runs the whole DM phase (WAL handling, retries, timing) and returns
  // its outcome by value — callable from a worker thread without touching
  // `result` (RunQueryRun pushes into result.failures concurrently).
  auto run_dm_phase = [&](DataFacadeProvider* provider) -> DmOutcome {
    DmOutcome out;
    WalWriter wal;
    WalWriter* wal_ptr = nullptr;
    if (!config.wal_path.empty()) {
      Status opened = wal.Open(config.wal_path);
      if (opened.ok()) {
        wal_ptr = &wal;
      } else {
        out.failures.push_back(
            QueryFailure{0, -1, 1, "wal", opened.message()});
      }
    }
    Stopwatch timer;
    // Read/refresh duty cycle (overlap mode only): instead of the single
    // DM run, fire maintenance generations on the profile's cadence
    // while the concurrent query streams keep reading through the
    // provider's facade swaps. Cycle failures are recorded, not retried:
    // each firing is its own generation, and the next one proceeds.
    if (provider != nullptr && config.profile.refresh_period_ms > 0.0) {
      int cycles = std::max(1, config.profile.max_refresh_cycles);
      DutyCycleReport duty;
      Status status = RunRefreshDutyCycle(
          db, dm, cycles, config.profile.refresh_period_ms, &duty, wal_ptr,
          provider);
      for (MaintenanceOpResult& op : duty.operations.operations) {
        result.dm_report.operations.push_back(std::move(op));
      }
      for (const std::string& err : duty.errors) {
        out.failures.push_back(QueryFailure{0, -1, 1, "dm", err});
      }
      if (!status.ok()) {
        out.failures.push_back(
            QueryFailure{0, -1, 1, "dm", status.message()});
      }
      if (wal_ptr != nullptr) {
        Status closed = wal.Close();
        if (!closed.ok()) {
          out.failures.push_back(
              QueryFailure{0, -1, 1, "wal", closed.message()});
        }
      }
      out.seconds = timer.ElapsedSeconds();
      return out;
    }
    Status status =
        RunMaintenanceGeneration(db, dm, &result.dm_report, wal_ptr,
                                 provider);
    if (wal_ptr == nullptr) {
      RngStream dm_retry_rng(
          DeriveSeed(config.seed, kRetryJitterTag, 0xD11Dull));
      int attempts = 1;
      while (!status.ok() && attempts < max_attempts) {
        BackoffBeforeRetry(config.retry_backoff_ms, attempts,
                           &dm_retry_rng);
        status = RunMaintenanceGeneration(db, dm, &result.dm_report,
                                          nullptr, provider);
        ++attempts;
      }
      out.retries += attempts - 1;
      if (!status.ok()) {
        out.failures.push_back(
            QueryFailure{0, -1, attempts, "dm", status.message()});
      }
    } else {
      if (!status.ok()) {
        out.failures.push_back(
            QueryFailure{0, -1, 1, "dm", status.message()});
      }
      Status closed = wal.Close();
      if (!closed.ok() && status.ok()) {
        out.failures.push_back(
            QueryFailure{0, -1, 1, "wal", closed.message()});
      }
    }
    out.seconds = timer.ElapsedSeconds();
    return out;
  };

  // Query Run 2: streams S+1..2S — fresh substitutions, same templates,
  // against the refreshed database (exposing any deferred maintenance of
  // auxiliary structures, paper §5.2). In overlap mode, QR2 runs
  // concurrently with data maintenance: every query acquires the current
  // generation from the provider (early queries see the pre-swap data,
  // queries after the atomic publish see the refreshed data — each pins
  // exactly one generation), while the DM thread forks, mutates and
  // publishes. The live Database object is only touched from the DM
  // thread during the overlap.
  if (config.overlap_dm_qr2) {
    DataFacadeProvider provider;
    provider.Publish(db->Snapshot());
    DmOutcome dm_out;
    Result<double> qr2 = 0.0;
    {
      std::thread dm_thread([&] { dm_out = run_dm_phase(&provider); });
      qr2 = RunQueryRun(config, db, /*stream_base=*/result.streams + 1,
                        &result.qr2_queries, &result.failures, "qr2",
                        &provider, &result.service,
                        &result.service_latencies_ms);
      dm_thread.join();
    }
    result.t_dm_sec = dm_out.seconds;
    result.failures.total_retries += dm_out.retries;
    for (QueryFailure& f : dm_out.failures) {
      result.failures.failures.push_back(std::move(f));
    }
    TPCDS_ASSIGN_OR_RETURN(result.t_qr2_sec, qr2);
  } else {
    DmOutcome dm_out = run_dm_phase(nullptr);
    result.t_dm_sec = dm_out.seconds;
    result.failures.total_retries += dm_out.retries;
    for (QueryFailure& f : dm_out.failures) {
      result.failures.failures.push_back(std::move(f));
    }
    TPCDS_ASSIGN_OR_RETURN(
        result.t_qr2_sec,
        RunQueryRun(config, db, /*stream_base=*/result.streams + 1,
                    &result.qr2_queries, &result.failures, "qr2",
                    /*provider=*/nullptr, &result.service,
                    &result.service_latencies_ms));
  }
  result.generation_after = db->generation();
  result.generation_swaps =
      static_cast<int>(result.generation_after - result.generation_before);

  // Recovery phase: rebuild a second database from checkpoint + WAL and
  // verify byte-identity with the live one. This is the paper-adjacent
  // "crash-point recovery" check — the recovered state must equal an
  // in-memory database that applied the same committed operations. Query
  // runs are read-only, so verifying after QR2 checks the same state.
  if (config.recover_verify && result.checkpoint_taken) {
    Database recovered;
    Result<RecoveryReport> rec =
        Recover(&recovered, config.checkpoint_dir, config.wal_path);
    if (!rec.ok()) {
      result.failures.failures.push_back(
          QueryFailure{0, -1, 1, "recovery", rec.status().message()});
    } else {
      result.recovery_ran = true;
      result.recovery = *rec;
      result.recovery_verified =
          HashDatabaseContent(recovered) == HashDatabaseContent(*db);
      if (!result.recovery_verified) {
        result.failures.failures.push_back(QueryFailure{
            0, -1, 1, "recovery",
            "recovered database is not byte-identical to the live one"});
      }
    }
  }
  return result;
}

}  // namespace tpcds
