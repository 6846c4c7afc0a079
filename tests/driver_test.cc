// End-to-end benchmark-driver test: the full execution order of paper
// Fig. 11 (load -> QR1 -> DM -> QR2) with concurrent streams, plus the
// metric arithmetic of §5.3.

#include <gtest/gtest.h>

#include <set>

#include "driver/driver.h"
#include "engine/audit.h"
#include "metric/metric.h"
#include "scaling/scaling.h"

namespace tpcds {
namespace {

TEST(MetricTest, QphDsFormula) {
  // Hand-checked example: SF=1000, S=7, T_QR1=T_QR2=3600s, T_DM=1800s,
  // T_Load=7200s. Denominator = 3600+1800+3600+0.01*7*7200 = 9504.
  MetricInputs in;
  in.scale_factor = 1000;
  in.streams = 7;
  in.t_qr1_sec = 3600;
  in.t_dm_sec = 1800;
  in.t_qr2_sec = 3600;
  in.t_load_sec = 7200;
  double expected = 1000.0 * 3600.0 * (198.0 * 7) / 9504.0;
  EXPECT_NEAR(QphDs(in), expected, 1e-6);
  EXPECT_NEAR(PricePerformance(1.0e6, QphDs(in)), 1.0e6 / expected, 1e-9);
}

TEST(MetricTest, LoadTimeChargeScalesWithStreams) {
  // The 0.01*S factor: more streams -> a larger share of the load time is
  // charged, so the metric cannot be gamed by adding streams (§5.3).
  MetricInputs in;
  in.scale_factor = 100;
  in.t_qr1_sec = in.t_qr2_sec = 100;
  in.t_dm_sec = 50;
  in.t_load_sec = 1000;
  in.streams = 3;
  double q3 = QphDs(in) / in.streams;  // per-stream throughput
  in.streams = 30;
  double q30 = QphDs(in) / in.streams;
  EXPECT_LT(q30, q3);  // per-stream value decays as load charge grows
}

TEST(MetricTest, DegenerateInputsYieldZero) {
  MetricInputs in;
  EXPECT_EQ(QphDs(in), 0.0);
  EXPECT_EQ(PricePerformance(100.0, 0.0), 0.0);
}

TEST(DriverTest, MinimumStreamsFollowFigure12) {
  EXPECT_EQ(ScalingModel::MinimumStreams(100), 3);
  EXPECT_EQ(ScalingModel::MinimumStreams(300), 5);
  EXPECT_EQ(ScalingModel::MinimumStreams(1000), 7);
  EXPECT_EQ(ScalingModel::MinimumStreams(3000), 9);
  EXPECT_EQ(ScalingModel::MinimumStreams(10000), 11);
  EXPECT_EQ(ScalingModel::MinimumStreams(30000), 13);
  EXPECT_EQ(ScalingModel::MinimumStreams(100000), 15);
  EXPECT_EQ(ScalingModel::MinimumStreams(0.01), 3);  // dev scales
}

TEST(DriverTest, FullBenchmarkSmallScale) {
  BenchmarkConfig config;
  config.scale_factor = 0.002;
  config.streams = 2;
  config.queries_per_stream = 12;  // quick run; full 99 exercised elsewhere
  config.refresh_fraction = 0.02;
  config.dimension_updates = 10;

  Database db;
  Result<BenchmarkResult> result = RunBenchmark(config, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->t_load_sec, 0.0);
  EXPECT_GT(result->t_qr1_sec, 0.0);
  EXPECT_GT(result->t_dm_sec, 0.0);
  EXPECT_GT(result->t_qr2_sec, 0.0);
  EXPECT_EQ(result->qr1_queries.size(), 24u);  // 2 streams x 12 queries
  EXPECT_EQ(result->qr2_queries.size(), 24u);
  EXPECT_EQ(result->dm_report.operations.size(), 12u);

  // Streams executed distinct template orders (permutation property).
  std::set<std::pair<int, int>> stream_templates;
  for (const QueryExecution& q : result->qr1_queries) {
    EXPECT_TRUE(
        stream_templates.insert({q.stream, q.template_id}).second);
  }

  MetricInputs in = result->ToMetricInputs();
  EXPECT_GT(QphDs(in), 0.0);

  // Data maintenance committed one copy-on-write generation swap.
  EXPECT_EQ(result->generation_before, 1u);
  EXPECT_EQ(result->generation_after, 2u);
  EXPECT_EQ(result->generation_swaps, 1);
}

TEST(DriverTest, OverlappedBenchmarkMatchesSequentialResults) {
  // Overlap mode runs QR2 concurrently with data maintenance through the
  // facade provider. The refreshed end state must be identical to the
  // sequential run's (DM is deterministic and queries are read-only), and
  // every query still completes with its pinned generation.
  BenchmarkConfig sequential;
  sequential.scale_factor = 0.002;
  sequential.streams = 2;
  sequential.queries_per_stream = 8;
  sequential.refresh_fraction = 0.02;
  sequential.dimension_updates = 10;
  BenchmarkConfig overlapped = sequential;
  overlapped.overlap_dm_qr2 = true;

  Database seq_db;
  Result<BenchmarkResult> seq = RunBenchmark(sequential, &seq_db);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  Database ovl_db;
  Result<BenchmarkResult> ovl = RunBenchmark(overlapped, &ovl_db);
  ASSERT_TRUE(ovl.ok()) << ovl.status().ToString();

  EXPECT_TRUE(ovl->failures.failures.empty());
  EXPECT_EQ(ovl->qr2_queries.size(), seq->qr2_queries.size());
  EXPECT_EQ(ovl->dm_report.operations.size(), 12u);
  EXPECT_EQ(ovl->generation_swaps, 1);
  EXPECT_EQ(ovl_db.generation(), 2u);
  // Same committed refresh: the refreshed datasets are byte-identical.
  EXPECT_EQ(HashDatabaseContent(ovl_db), HashDatabaseContent(seq_db));
}

TEST(MetricTest, PriceSheetTco) {
  PriceSheet sheet;
  sheet.hardware_dollars = 200000;
  sheet.software_dollars = 90000;
  sheet.maintenance_dollars_per_year = 25000;
  sheet.discounts_dollars = 15000;
  EXPECT_NEAR(sheet.ThreeYearTco(), 350000.0, 1e-9);
}

TEST(DriverTest, PowerTestComputesBothMeans) {
  BenchmarkConfig config;
  config.scale_factor = 0.002;
  config.queries_per_stream = 10;
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = config.scale_factor;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());

  Result<PowerTestResult> power = RunPowerTest(config, &db);
  ASSERT_TRUE(power.ok()) << power.status().ToString();
  EXPECT_EQ(power->queries.size(), 10u);
  EXPECT_GT(power->total_sec, 0.0);
  EXPECT_GT(power->geometric_mean_sec, 0.0);
  // AM-GM inequality: the geometric mean never exceeds the arithmetic.
  EXPECT_LE(power->geometric_mean_sec, power->arithmetic_mean_sec + 1e-9);
}

TEST(DriverTest, ConcurrentStreamsWithIndexJoins) {
  // Index joins build table indexes lazily from concurrent query streams;
  // this exercises the index-build mutex under the 2-stream driver.
  BenchmarkConfig config;
  config.scale_factor = 0.002;
  config.streams = 2;
  config.queries_per_stream = 15;
  Database db;
  Result<BenchmarkResult> result = RunBenchmark(config, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->qr1_queries.size(), 30u);
  EXPECT_EQ(result->qr2_queries.size(), 30u);
}

TEST(DriverTest, QueryRun2UsesFreshSubstitutions) {
  BenchmarkConfig config;
  config.scale_factor = 0.002;
  config.streams = 1;
  config.queries_per_stream = 5;
  Database db;
  Result<BenchmarkResult> result = RunBenchmark(config, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Stream ids differ between runs (1..S vs S+1..2S).
  for (const QueryExecution& q : result->qr1_queries) {
    EXPECT_EQ(q.stream, 1);
  }
  for (const QueryExecution& q : result->qr2_queries) {
    EXPECT_EQ(q.stream, 2);
  }
}

}  // namespace
}  // namespace tpcds
