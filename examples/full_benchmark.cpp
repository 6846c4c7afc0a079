// full_benchmark: the complete TPC-DS execution per the paper's Fig. 11 —
// timed load, Query Run 1 (concurrent streams over all 99 templates), the
// 12-operation data-maintenance run, Query Run 2 — ending in QphDS@SF and
// $/QphDS@SF.
//
//   ./examples/full_benchmark [-scale SF] [-streams S] [-queries N]
//                             [-tco DOLLARS] [-no-star] [-index-joins]
//                             [-parallelism W] [-power] [-timeout MS]
//                             [-mem-budget MB] [-retries N] [-faults SPEC]
//                             [-checkpoint-dir DIR] [-wal PATH] [-recover]
//
// -parallelism sets the threads each query runs on (default 0 = each
// service worker slot's share of the hardware cores, on the shared
// executor pool; 1 = serial).
//
// Governance flags: -timeout and -mem-budget bound every stream query;
// -retries sets attempts per work item before it lands in the failure
// report; -faults arms the deterministic fault injector (same grammar as
// the TPCDS_FAULTS environment variable, e.g. "morsel=nth:40").
//
// Durability flags: -checkpoint-dir checkpoints the database right after
// the timed load; -wal routes the data-maintenance run through a
// write-ahead log (each refresh op commits individually, and the run is
// not retried on failure); -recover adds a recovery phase after data
// maintenance that rebuilds a database from checkpoint + WAL and verifies
// it is byte-identical to the live one (exit code 1 on mismatch).
//
// Generation flags: -overlap runs Query Run 2 concurrently with data
// maintenance (copy-on-write generation + atomic facade swap); -attach
// (requires -checkpoint-dir) measures the O(1) mmap cold start against a
// deep heap load of the same checkpoint, cross-checks content hashes and
// a sample of query answers, and exits 1 on any divergence.
//
// Admission-control flags (docs/SERVICE.md): the query runs always route
// their S client streams through a QueryService; -service-slots caps the
// concurrent worker slots below S (making streams queue), -service-queue
// bounds the admission queue (backpressure / shedding beyond it),
// -service-mem caps the global memory pool all admitted governors charge,
// -service-deadline sets a per-statement end-to-end deadline in ms,
// -service-spread splits streams over N priority classes so overload
// shedding has lower-priority victims to pick. The metric report then
// shows tail latency and where every submission went.
//
// Chaos flags (docs/ROBUSTNESS.md): -profile selects a workload profile
// ("uniform", "hot-skew", "reporting", "adhoc", "chains", "refresh-duty",
// with key=value overrides or @file); -chaos SPEC switches to drill mode:
// the time-phased fault schedule (grammar
// "site@START_MS+DURATION_MS=trigger", e.g.
// "wal-append@20+500=nth:3,shed@0+400=every:5") is armed while the
// profile's query streams run concurrently with its refresh duty cycle,
// then the standing invariants are verified (balanced counters, drained
// pool, no lost queries, bounded retries, byte-identical recovery,
// clean constraint audit). Drill mode requires -checkpoint-dir and -wal
// and exits 1 if any invariant fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "driver/drill.h"
#include "driver/driver.h"
#include "engine/audit.h"
#include "metric/metric.h"
#include "qgen/qgen.h"
#include "templates/templates.h"
#include "util/fault.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  tpcds::BenchmarkConfig config;
  config.scale_factor = 0.01;
  double tco = 350000.0;
  bool run_power = false;
  bool attach_demo = false;
  bool drill_mode = false;
  tpcds::ChaosSchedule chaos;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "-scale") {
      config.scale_factor = std::strtod(next(), nullptr);
    } else if (arg == "-streams") {
      config.streams = std::atoi(next());
    } else if (arg == "-queries") {
      config.queries_per_stream = std::atoi(next());
    } else if (arg == "-tco") {
      tco = std::strtod(next(), nullptr);
    } else if (arg == "-no-star") {
      config.planner.star_transformation = false;
    } else if (arg == "-index-joins") {
      config.planner.index_joins = true;
    } else if (arg == "-parallelism") {
      config.planner.parallelism = std::atoi(next());
    } else if (arg == "-power") {
      run_power = true;
    } else if (arg == "-timeout") {
      config.planner.timeout_ms = std::strtod(next(), nullptr);
    } else if (arg == "-mem-budget") {
      config.planner.memory_budget_bytes = static_cast<int64_t>(
          std::strtod(next(), nullptr) * 1024.0 * 1024.0);
    } else if (arg == "-retries") {
      config.max_query_attempts = std::atoi(next());
    } else if (arg == "-faults") {
      tpcds::Status st = tpcds::FaultInjector::Global().Configure(next());
      if (!st.ok()) {
        std::fprintf(stderr, "bad -faults spec: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    } else if (arg == "-checkpoint-dir") {
      config.checkpoint_dir = next();
    } else if (arg == "-wal") {
      config.wal_path = next();
    } else if (arg == "-recover") {
      config.recover_verify = true;
    } else if (arg == "-overlap") {
      config.overlap_dm_qr2 = true;
    } else if (arg == "-attach") {
      attach_demo = true;
    } else if (arg == "-service-slots") {
      config.service_worker_slots = std::atoi(next());
    } else if (arg == "-service-queue") {
      config.service_queue_depth =
          static_cast<size_t>(std::atoll(next()));
    } else if (arg == "-service-mem") {
      config.service_memory_budget_bytes = static_cast<int64_t>(
          std::strtod(next(), nullptr) * 1024.0 * 1024.0);
    } else if (arg == "-service-deadline") {
      config.service_deadline_ms = std::strtod(next(), nullptr);
    } else if (arg == "-service-spread") {
      config.service_priority_spread = std::atoi(next());
    } else if (arg == "-profile") {
      tpcds::Result<tpcds::WorkloadProfile> profile =
          tpcds::WorkloadProfile::Parse(next());
      if (!profile.ok()) {
        std::fprintf(stderr, "bad -profile spec: %s\n",
                     profile.status().ToString().c_str());
        return 1;
      }
      config.profile = *profile;
    } else if (arg == "-chaos") {
      tpcds::Result<tpcds::ChaosSchedule> parsed =
          tpcds::ChaosSchedule::Parse(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad -chaos spec: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      chaos = *parsed;
      drill_mode = true;
    } else {
      std::fprintf(stderr,
                   "usage: full_benchmark [-scale SF] [-streams S] "
                   "[-queries N] [-tco $] [-no-star] [-index-joins] "
                   "[-parallelism W] [-power] [-timeout MS] "
                   "[-mem-budget MB] [-retries N] [-faults SPEC] "
                   "[-checkpoint-dir DIR] [-wal PATH] [-recover] "
                   "[-overlap] [-attach] [-service-slots N] "
                   "[-service-queue N] [-service-mem MB] "
                   "[-service-deadline MS] [-service-spread N] "
                   "[-profile SPEC] [-chaos SCHEDULE]\n");
      return 1;
    }
  }
  if (attach_demo && config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "-attach requires -checkpoint-dir\n");
    return 1;
  }

  // Drill mode: run the profile × schedule combination through the chaos
  // harness and gate on the standing invariants instead of the metric.
  if (drill_mode) {
    if (config.checkpoint_dir.empty() || config.wal_path.empty()) {
      std::fprintf(stderr, "-chaos requires -checkpoint-dir and -wal\n");
      return 1;
    }
    tpcds::DrillConfig drill;
    drill.base = config;
    drill.schedule = chaos;
    std::printf("chaos drill: SF %.3f, profile %s, schedule [%s]\n",
                config.scale_factor, config.profile.ToString().c_str(),
                chaos.ToString().c_str());
    tpcds::Result<tpcds::DrillResult> outcome = tpcds::RunChaosDrill(drill);
    if (!outcome.ok()) {
      std::fprintf(stderr, "drill harness failed: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", outcome->ToString().c_str());
    if (!outcome->failures.empty()) {
      std::printf("\n--- failure report ---\n%s",
                  outcome->failures.ToString().c_str());
    }
    return outcome->Passed() ? 0 : 1;
  }

  std::printf("TPC-DS benchmark: SF %.3f, %s streams, %d queries/stream\n",
              config.scale_factor,
              config.streams > 0 ? std::to_string(config.streams).c_str()
                                 : "minimum",
              config.queries_per_stream);
  tpcds::Database db;
  tpcds::Result<tpcds::BenchmarkResult> result =
      tpcds::RunBenchmark(config, &db);
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n--- data maintenance detail ---\n");
  for (const tpcds::MaintenanceOpResult& op :
       result->dm_report.operations) {
    std::printf("  %-30s %10lld rows %8.3f s\n", op.operation.c_str(),
                static_cast<long long>(op.rows_affected), op.seconds);
  }

  // Slowest queries of Query Run 1 — where tuning effort pays (paper
  // §5.3: "engineers will concentrate on long running queries").
  std::vector<tpcds::QueryExecution> sorted = result->qr1_queries;
  std::sort(sorted.begin(), sorted.end(),
            [](const tpcds::QueryExecution& a,
               const tpcds::QueryExecution& b) {
              return a.seconds > b.seconds;
            });
  std::printf("\n--- slowest queries (run 1) ---\n");
  for (size_t i = 0; i < std::min<size_t>(5, sorted.size()); ++i) {
    std::printf("  q%02d (stream %d)  %8.3f s  %lld rows\n",
                sorted[i].template_id, sorted[i].stream,
                sorted[i].seconds,
                static_cast<long long>(sorted[i].result_rows));
  }

  if (!result->failures.empty()) {
    std::printf("\n--- failure report ---\n%s",
                result->failures.ToString().c_str());
  }

  if (result->checkpoint_taken || result->recovery_ran) {
    std::printf("\n--- durability ---\n");
    if (result->checkpoint_taken) {
      std::printf("  checkpoint (post-load)  %8.3f s\n",
                  result->t_checkpoint_sec);
    }
    if (result->recovery_ran) {
      std::printf("  %s", result->recovery.ToString().c_str());
      std::printf("  recovered state: %s\n",
                  result->recovery_verified ? "byte-identical to live"
                                            : "MISMATCH");
    }
  }

  tpcds::MetricInputs inputs = result->ToMetricInputs();

  // Cold-start comparison: deep-load the post-load checkpoint onto the
  // heap (full CRC sweep + materialization) vs an O(1) mmap attach, then
  // cross-check content hashes and a sample of query answers. Any
  // divergence fails the run.
  bool attach_verified = true;
  if (attach_demo && result->checkpoint_taken) {
    tpcds::Database heap_db;
    tpcds::Stopwatch load_timer;
    tpcds::Status loaded = heap_db.LoadCheckpoint(config.checkpoint_dir);
    double t_deep_load = load_timer.ElapsedSeconds();
    tpcds::Database mmap_db;
    tpcds::Stopwatch attach_timer;
    tpcds::Status att = mmap_db.AttachCheckpoint(config.checkpoint_dir);
    double t_attach = attach_timer.ElapsedSeconds();
    if (!loaded.ok() || !att.ok()) {
      std::fprintf(stderr, "cold start failed: %s\n",
                   (!loaded.ok() ? loaded : att).ToString().c_str());
      return 1;
    }
    attach_verified = tpcds::HashDatabaseContent(mmap_db) ==
                      tpcds::HashDatabaseContent(heap_db);
    tpcds::QueryGenerator qgen(config.seed);
    for (int id : {3, 27, 55, 82, 96}) {
      const tpcds::QueryTemplate* tmpl = tpcds::FindTemplate(id);
      if (tmpl == nullptr) continue;
      tpcds::Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
      if (!sql.ok()) continue;
      tpcds::Result<tpcds::QueryResult> on_heap =
          heap_db.Query(*sql, config.planner);
      tpcds::Result<tpcds::QueryResult> on_mmap =
          mmap_db.Query(*sql, config.planner);
      if (!on_heap.ok() || !on_mmap.ok() ||
          on_heap->ToCsv() != on_mmap->ToCsv()) {
        std::fprintf(stderr, "attach verify: q%02d diverges across "
                     "backings\n", id);
        attach_verified = false;
      }
    }
    std::printf("\n--- cold start: heap load vs mmap attach ---\n");
    std::printf("  T_Load (initial, generated)  %10.3f s\n",
                result->t_load_sec);
    std::printf("  T_Load (checkpoint, deep)    %10.3f s\n", t_deep_load);
    std::printf("  T_Attach (checkpoint, mmap)  %10.3f s  (%.0fx faster "
                "than deep load)\n",
                t_attach,
                t_attach > 0.0 ? t_deep_load / t_attach : 0.0);
    std::printf("  attach state: %s\n",
                attach_verified ? "byte-identical to deep load"
                                : "MISMATCH");
    inputs.attached = true;
    inputs.t_attach_sec = t_attach;
  }

  std::printf("\n--- primary metrics (paper §5.3) ---\n%s",
              tpcds::FormatMetricReport(inputs, tco).c_str());

  if (run_power) {
    // The legacy single-user power test TPC-DS dropped (§5.3), run for
    // contrast: the geometric mean underweights the long-running queries.
    tpcds::Result<tpcds::PowerTestResult> power =
        tpcds::RunPowerTest(config, &db);
    if (!power.ok()) {
      std::fprintf(stderr, "power test failed: %s\n",
                   power.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "\n--- legacy power test (dropped by TPC-DS, §5.3) ---\n"
        "  queries            %8zu (sequential, single user)\n"
        "  total              %8.2f s\n"
        "  arithmetic mean    %8.4f s\n"
        "  geometric mean     %8.4f s  <- underweights long queries\n",
        power->queries.size(), power->total_sec,
        power->arithmetic_mean_sec, power->geometric_mean_sec);
  }
  // Admission accounting: every submitted statement must have resolved
  // to exactly one disposition and the global memory pool must have
  // drained — an imbalance means the service lost a query.
  if (!result->service.Balanced() ||
      result->service.pool_bytes_in_use != 0) {
    std::fprintf(stderr, "service counters unbalanced (query lost?):\n%s",
                 result->service.ToString().c_str());
    return 1;
  }

  if (result->recovery_ran && !result->recovery_verified) return 1;
  return attach_verified ? 0 : 1;
}
