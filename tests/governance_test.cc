// Query-governance tests: deadlines, memory/row budgets and external
// cancellation must stop queries with clean error statuses (checked at
// morsel boundaries), governed-but-under-limit queries must be
// byte-identical to ungoverned runs, and the fault-injection harness must
// drive a full benchmark through every failure site without crashing or
// breaking invariants.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "engine/database.h"
#include "engine/governor.h"
#include "maintenance/maintenance.h"
#include "util/fault.h"

namespace tpcds {
namespace {

/// A fault-injector guard: every test leaves the global injector disarmed
/// so governance state cannot leak into later tests in the binary.
class GovernanceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Clear(); }
};

/// Builds a table of `rows` rows — enough to span many 1024-row morsels.
void BuildWideTable(Database* db, const std::string& name, int64_t rows) {
  ASSERT_TRUE(db->CreateTable(name, {{"k", ColumnType::kInteger},
                                     {"grp", ColumnType::kInteger},
                                     {"txt", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db->FindTable(name);
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i),
                                     std::to_string(i % 97),
                                     "filler-" + std::to_string(i % 13)})
                    .ok());
  }
}

TEST_F(GovernanceTest, DeadlineTripsMidScanWithCleanError) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  PlannerOptions options;
  options.timeout_ms = 1e-6;  // expires before the first morsel completes
  Result<QueryResult> r =
      db.Query("SELECT grp, COUNT(*) FROM t GROUP BY grp", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos);
}

TEST_F(GovernanceTest, MemoryBudgetTripsMidHashBuild) {
  Database db;
  BuildWideTable(&db, "fact", 20000);
  BuildWideTable(&db, "dim", 20000);
  PlannerOptions options;
  options.memory_budget_bytes = 4096;  // far below the build side's keys
  Result<QueryResult> r = db.Query(
      "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
}

TEST_F(GovernanceTest, RowBudgetTripsWithinOneMorselAtAnyParallelism) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  for (int parallelism : {1, 2, 8}) {
    PlannerOptions options;
    options.parallelism = parallelism;
    options.row_budget = 2000;
    Result<QueryResult> r = db.Query("SELECT k, txt FROM t", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << parallelism;
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos);
  }
}

TEST_F(GovernanceTest, UnderLimitQueriesAreByteIdenticalToUngoverned) {
  Database db;
  BuildWideTable(&db, "t", 20000);
  const std::string sql =
      "SELECT grp, COUNT(*), MIN(txt) FROM t GROUP BY grp ORDER BY 2 DESC, 1";
  Result<QueryResult> baseline = db.Query(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (int parallelism : {1, 2, 8}) {
    PlannerOptions options;
    options.parallelism = parallelism;
    options.timeout_ms = 60000.0;
    options.memory_budget_bytes = 1LL << 30;
    options.row_budget = 1LL << 30;
    Result<QueryResult> governed = db.Query(sql, options);
    ASSERT_TRUE(governed.ok()) << governed.status().ToString();
    ASSERT_EQ(governed->rows.size(), baseline->rows.size());
    for (size_t i = 0; i < baseline->rows.size(); ++i) {
      for (size_t c = 0; c < baseline->rows[i].size(); ++c) {
        EXPECT_EQ(Value::Compare(governed->rows[i][c], baseline->rows[i][c]),
                  0)
            << "parallelism " << parallelism << " row " << i << " col " << c;
      }
    }
  }
}

TEST_F(GovernanceTest, RowBudgetTripsOnVectorizedScanPath) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // The kernelizable WHERE runs as a typed scan kernel; the budget must
  // still trip at the scan's morsel boundaries.
  const std::string sql = "SELECT k, txt FROM t WHERE k >= 0";
  ASSERT_TRUE(db.Query(sql, PlannerOptions()).ok());
  for (int parallelism : {1, 4}) {
    PlannerOptions options;
    options.parallelism = parallelism;
    options.row_budget = 2000;
    Result<QueryResult> r = db.Query(sql, options);
    ASSERT_FALSE(r.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << parallelism;
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos);
  }
}

TEST_F(GovernanceTest, DeadlineTripsOnVectorizedScanPath) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  PlannerOptions options;
  options.timeout_ms = 1e-6;  // expires before the first morsel completes
  Result<QueryResult> r =
      db.Query("SELECT COUNT(*) FROM t WHERE k BETWEEN 100 AND 40000",
               options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernanceTest, MemoryBudgetTripsWithJoinBloomPushdownActive) {
  Database db;
  BuildWideTable(&db, "fact", 20000);
  // Small enough relative to the fact table that the join registers its
  // probe-side key pushdown (the selectivity gate requires it).
  BuildWideTable(&db, "dim", 2000);
  // dim.k >= 0 keeps every dim row and holds dim on the hash-join path
  // (an unfiltered dim would be index-joined, with no build side).
  const std::string sql =
      "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k AND dim.k >= 0";
  // Un-budgeted, the join's key pushdown rejects probe rows at the scan.
  ExecStats stats;
  ASSERT_TRUE(db.Query(sql, PlannerOptions(), &stats).ok());
  ASSERT_GT(stats.bloom_rejects, 0);
  // With the pushdown active, the budget still trips.
  PlannerOptions options;
  options.memory_budget_bytes = 4096;  // far below the build side's keys
  Result<QueryResult> r = db.Query(sql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
}

TEST_F(GovernanceTest, CancelBeforeStartStopsImmediately) {
  Database db;
  BuildWideTable(&db, "t", 5000);
  PlannerOptions options;
  QueryGovernor governor;
  governor.Cancel("test cancel");
  Result<QueryResult> r =
      db.Query("SELECT COUNT(*) FROM t", options, nullptr, &governor);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernanceTest, CancellationRacesMorselWorkersCleanly) {
  Database db;
  BuildWideTable(&db, "fact", 60000);
  BuildWideTable(&db, "dim", 60000);
  // Repeat the race: a worker pool mid-join against a concurrent Cancel.
  // Under TSan this doubles as a data-race check on the trip path.
  for (int round = 0; round < 5; ++round) {
    PlannerOptions options;
    options.parallelism = 4;
    QueryGovernor governor;
    std::thread canceller([&governor] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      governor.Cancel("raced cancel");
    });
    Result<QueryResult> r = db.Query(
        "SELECT COUNT(*), SUM(fact.grp) FROM fact, dim "
        "WHERE fact.k = dim.k",
        options, nullptr, &governor);
    canceller.join();
    // Either the query finished first or it was cancelled — both clean.
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << "round "
                                                           << round;
    }
  }
}

TEST_F(GovernanceTest, ResourcePoolChargesNothingOnFailedReservation) {
  ResourcePool pool(1000);
  EXPECT_TRUE(pool.TryReserve(600));
  EXPECT_EQ(pool.used(), 600);
  // Over capacity: rejected, and the failed attempt charges nothing.
  EXPECT_FALSE(pool.TryReserve(500));
  EXPECT_EQ(pool.used(), 600);
  EXPECT_TRUE(pool.TryReserve(400));
  EXPECT_EQ(pool.used(), 1000);
  EXPECT_EQ(pool.peak(), 1000);
  pool.Release(1000);
  EXPECT_EQ(pool.used(), 0);
  EXPECT_EQ(pool.peak(), 1000);  // peak is a high-water mark, not usage
  // Capacity 0 = unlimited, but usage and peak still track.
  ResourcePool unlimited;
  EXPECT_TRUE(unlimited.TryReserve(1LL << 40));
  EXPECT_EQ(unlimited.used(), 1LL << 40);
  unlimited.Release(1LL << 40);
  EXPECT_EQ(unlimited.used(), 0);
}

TEST_F(GovernanceTest, ParentPoolDrainsToZeroAfterMixedQueryOutcomes) {
  // The admission-control contract: whatever mix of fates queries meet —
  // clean success, explicit Release, cancellation, or teardown with bytes
  // still outstanding (a shed or tripped query) — the shared pool must
  // read exactly zero once every governor is gone.
  ResourcePool pool(1LL << 20);
  {
    GovernorLimits limits;
    limits.memory_budget_bytes = 1LL << 30;
    // Success path: reserve, then explicit symmetric release.
    QueryGovernor ok_query(limits);
    ok_query.set_parent_pool(&pool);
    EXPECT_TRUE(ok_query.Reserve(4096));
    EXPECT_EQ(pool.used(), 4096);
    ok_query.Release(4096);
    EXPECT_EQ(pool.used(), 0);
    // Cancelled mid-flight with bytes outstanding: destructor credits.
    QueryGovernor cancelled(limits);
    cancelled.set_parent_pool(&pool);
    EXPECT_TRUE(cancelled.Reserve(8192));
    cancelled.Cancel("shed under overload");
    EXPECT_EQ(pool.used(), 8192);
    // Tripped by the pool itself: the failed reservation charges nothing.
    QueryGovernor over(limits);
    over.set_parent_pool(&pool);
    EXPECT_FALSE(over.Reserve(1LL << 20));
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(over.status().message().find("global memory pool exhausted"),
              std::string::npos);
    EXPECT_EQ(pool.used(), 8192);
  }
  // Every governor destroyed: the pool reads exactly zero.
  EXPECT_EQ(pool.used(), 0);
  EXPECT_EQ(pool.peak(), 8192);
}

TEST_F(GovernanceTest, PoolTripFailsTheQueryWithResourceExhausted) {
  Database db;
  BuildWideTable(&db, "fact", 20000);
  BuildWideTable(&db, "dim", 20000);
  // The hash build charges the pool key by key: big enough that early
  // reservations land (the pool sees real usage), far below the build
  // side's total (so the pool must trip mid-build).
  ResourcePool pool(128 * 1024);
  GovernorLimits limits;
  limits.memory_budget_bytes = 1LL << 40;  // only the pool can trip
  {
    QueryGovernor governor(limits);
    governor.set_parent_pool(&pool);
    PlannerOptions options;
    Result<QueryResult> r =
        db.Query("SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k",
                 options, nullptr, &governor);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("global memory pool exhausted"),
              std::string::npos);
    EXPECT_GT(pool.peak(), 0);
  }
  EXPECT_EQ(pool.used(), 0);  // governor teardown drained the charge
}

TEST_F(GovernanceTest, FaultSpecParsingRejectsUnknownSites) {
  EXPECT_FALSE(FaultInjector::Global().Configure("bogus=nth:1").ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("morsel=sometimes").ok());
  EXPECT_TRUE(FaultInjector::Global().Configure("morsel=nth:5").ok());
  EXPECT_TRUE(FaultInjector::Global().enabled());
  FaultInjector::Global().Clear();
  EXPECT_FALSE(FaultInjector::Global().enabled());
}

TEST_F(GovernanceTest, NthFaultFiresExactlyOnce) {
  ASSERT_TRUE(FaultInjector::Global().Configure("morsel=nth:2").ok());
  EXPECT_TRUE(FaultInjector::Global().Maybe("morsel").ok());
  EXPECT_FALSE(FaultInjector::Global().Maybe("morsel").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(FaultInjector::Global().Maybe("morsel").ok());
  }
  EXPECT_EQ(FaultInjector::Global().CallsAt("morsel"), 12);
}

/// Checks the benchmark database's invariants after a faulted run: one
/// open SCD revision per business key, and fact-to-fact integrity.
void ExpectInvariantsHold(Database* db, const std::string& context) {
  EngineTable* item = db->FindTable("item");
  ASSERT_NE(item, nullptr);
  int bk_col = item->ColumnIndex("i_item_id");
  int end_col = item->ColumnIndex("i_rec_end_date");
  const EngineTable::StringIndex& index = item->GetOrBuildStringIndex(bk_col);
  for (const auto& [key, rows] : index) {
    int open = 0;
    for (int64_t row : rows) {
      if (item->GetValue(row, end_col).is_null()) ++open;
    }
    ASSERT_EQ(open, 1) << context << ": item " << key;
  }
  Result<QueryResult> r = db->Query(
      "SELECT COUNT(*) FROM store_sales, store_returns "
      "WHERE ss_item_sk = sr_item_sk "
      "  AND ss_ticket_number = sr_ticket_number");
  ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(),
            db->FindTable("store_returns")->num_rows())
      << context;
}

BenchmarkConfig MiniBenchmarkConfig() {
  BenchmarkConfig config;
  config.scale_factor = 0.002;
  config.streams = 2;
  config.queries_per_stream = 4;
  config.dimension_updates = 10;
  config.max_query_attempts = 3;
  config.retry_backoff_ms = 1.0;
  return config;
}

TEST_F(GovernanceTest, FaultSweepOverEverySiteCompletesBenchmark) {
  // One-shot faults at every site: the first hit fails, the retry (or the
  // maintenance rollback + retry, or the per-op WAL undo) succeeds or is
  // recorded, and the run completes with the failure on record. Durable
  // sites (wal-*, ckpt-*) only exist when the benchmark runs in
  // durability mode, so those sweeps enable it; the io-* sites belong to
  // the flat-file writer, which the benchmark never touches — they are
  // exercised by the flat-file regression tests in recovery_test.
  const std::string tmp = ::testing::TempDir() + "gov_fault_sweep";
  for (const std::string& site : FaultInjector::Sites()) {
    if (site == "io-write" || site == "io-close") continue;
    const bool durable_site =
        site.rfind("wal-", 0) == 0 || site.rfind("ckpt-", 0) == 0;
    // ckpt-manifest fires once per checkpoint, so only nth:1 can hit it;
    // shed only fires during overload victim selection, so the first
    // evaluation is the reliable one.
    const std::string trigger =
        site == "ckpt-manifest" || site == "shed" ? "=nth:1" : "=nth:3";
    ASSERT_TRUE(FaultInjector::Global().Configure(site + trigger).ok());
    BenchmarkConfig config = MiniBenchmarkConfig();
    if (site == "shed") {
      // Shedding needs overload with mixed priorities: 4 closed-loop
      // streams over 1 worker slot and a 1-deep queue, streams split
      // over 2 priority classes so a full queue can hold a
      // strictly-lower-priority victim.
      config.streams = 4;
      config.service_worker_slots = 1;
      config.service_queue_depth = 1;
      config.service_priority_spread = 2;
    }
    if (durable_site) {
      std::filesystem::remove_all(tmp);
      config.checkpoint_dir = tmp + "/ckpt";
      config.wal_path = tmp + "/dm.wal";
      config.recover_verify = true;
    }
    Database db;
    Result<BenchmarkResult> result = RunBenchmark(config, &db);
    FaultInjector::Global().Clear();
    ASSERT_TRUE(result.ok()) << "site " << site << ": "
                             << result.status().ToString();
    EXPECT_FALSE(result->failures.empty())
        << "site " << site << " never fired";
    if (durable_site && result->recovery_ran) {
      // Whatever prefix committed before the fault, the recovered state
      // must match the live database byte for byte.
      EXPECT_TRUE(result->recovery_verified) << "site " << site;
    }
    ExpectInvariantsHold(&db, "site " + site);
  }
  std::filesystem::remove_all(tmp);
}

TEST_F(GovernanceTest, ExhaustedRetriesAreRecordedAndIsolated) {
  // Every morsel fails, every attempt: all row-producing queries exhaust
  // their retries and land in the FailureReport — yet the benchmark still
  // completes and the database invariants hold.
  ASSERT_TRUE(FaultInjector::Global().Configure("morsel=every:1").ok());
  Database db;
  Result<BenchmarkResult> result = RunBenchmark(MiniBenchmarkConfig(), &db);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->failures.failures.empty());
  EXPECT_GT(result->failures.total_retries, 0);
  for (const QueryFailure& f : result->failures.failures) {
    EXPECT_EQ(f.attempts, 3) << "query" << f.template_id;
    EXPECT_NE(f.error.find("injected fault"), std::string::npos);
  }
  // The report flags the run as not metric-valid.
  MetricInputs inputs = result->ToMetricInputs();
  EXPECT_GT(inputs.failed_queries, 0);
  ExpectInvariantsHold(&db, "morsel=every:1");
}

TEST_F(GovernanceTest, MaintenanceFaultRollsBackAndRetries) {
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.002;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());
  int64_t sales_before = db.FindTable("store_sales")->num_rows();

  // Fire mid-run (after several operations have mutated tables): the
  // whole maintenance run must roll back, leaving row counts untouched.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("maintenance=nth:7").ok());
  MaintenanceOptions options;
  options.scale_factor = 0.002;
  options.dimension_updates = 10;
  MaintenanceReport report;
  Status st = RunDataMaintenance(&db, options, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(report.operations.empty());
  EXPECT_EQ(db.FindTable("store_sales")->num_rows(), sales_before);
  ExpectInvariantsHold(&db, "post-rollback");

  // The one-shot fault is spent: the retry applies all 12 operations.
  st = RunDataMaintenance(&db, options, &report);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.operations.size(), 12u);
  ExpectInvariantsHold(&db, "post-retry");
}

TEST_F(GovernanceTest, BenchmarkFailsFastOnNonEmptyDatabase) {
  Database db;
  ASSERT_TRUE(db.CreateTable("left_over", {{"a", ColumnType::kInteger}})
                  .ok());
  Result<BenchmarkResult> result = RunBenchmark(MiniBenchmarkConfig(), &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("empty database"),
            std::string::npos);
}

}  // namespace
}  // namespace tpcds
