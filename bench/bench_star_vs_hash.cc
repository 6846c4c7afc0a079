// Ablation for the paper's §2.1 claim: the snowstorm schema exercises both
// star-schema execution (star transformation / semi-join reduction) and
// 3NF execution (hash-join pipelines). Sweeps dimension-predicate
// selectivity and compares the two paths on the same star query.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

Database* GlobalDb() {
  static Database* db =
      bench::LoadDatabase(bench::BenchScaleFactor(0.01)).release();
  return db;
}

/// A 4-way star query whose dimension selectivity is controlled by the
/// manager-id band: ~1% of items per manager id unit.
std::string StarQuery(int manager_band) {
  return StringPrintf(
      "SELECT s_store_name, d_moy, SUM(ss_ext_sales_price) AS revenue "
      "FROM store_sales, date_dim, store, item "
      "WHERE ss_sold_date_sk = d_date_sk "
      "  AND ss_store_sk = s_store_sk "
      "  AND ss_item_sk = i_item_sk "
      "  AND d_year = 2000 "
      "  AND i_manager_id BETWEEN 1 AND %d "
      "GROUP BY s_store_name, d_moy "
      "ORDER BY revenue DESC",
      manager_band);
}

void BM_Star(benchmark::State& state) {
  Database* db = GlobalDb();
  PlannerOptions options;
  options.star_transformation = true;
  std::string sql = StarQuery(static_cast<int>(state.range(0)));
  ExecStats stats;
  for (auto _ : state) {
    stats = ExecStats{};
    Result<QueryResult> r = db->Query(sql, options, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["fact_rows_pruned"] =
      static_cast<double>(stats.star_filtered_rows);
  state.counters["rows_joined"] = static_cast<double>(stats.rows_joined);
}
BENCHMARK(BM_Star)->Arg(1)->Arg(10)->Arg(50)->Arg(100)->Unit(
    benchmark::kMillisecond);

// Index-driven join path: dimensions without local predicates are probed
// through their hash indexes instead of scanned+hashed. A local filter
// keeps a dimension on the scan path (StarQuery's date_dim and item), so
// measure the unfiltered 3-way join against the same join with no-op
// filters.
void BM_IndexJoin(benchmark::State& state) {
  Database* db = GlobalDb();
  PlannerOptions options;
  options.star_transformation = false;
  // No dimension predicates: every dimension is index-join eligible.
  const char* sql =
      "SELECT s_store_name, SUM(ss_ext_sales_price) AS revenue "
      "FROM store_sales, store, item "
      "WHERE ss_store_sk = s_store_sk AND ss_item_sk = i_item_sk "
      "GROUP BY s_store_name ORDER BY revenue DESC";
  for (auto _ : state) {
    Result<QueryResult> r = db->Query(sql, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexJoin)->Unit(benchmark::kMillisecond);

void BM_SameQueryHashJoin(benchmark::State& state) {
  Database* db = GlobalDb();
  PlannerOptions options;
  options.star_transformation = false;
  // Filters that keep every row hold both dimensions on the scan +
  // hash-join path.
  const char* sql =
      "SELECT s_store_name, SUM(ss_ext_sales_price) AS revenue "
      "FROM store_sales, store, item "
      "WHERE ss_store_sk = s_store_sk AND ss_item_sk = i_item_sk "
      "  AND s_store_sk >= 0 AND i_item_sk >= 0 "
      "GROUP BY s_store_name ORDER BY revenue DESC";
  for (auto _ : state) {
    Result<QueryResult> r = db->Query(sql, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SameQueryHashJoin)->Unit(benchmark::kMillisecond);

void BM_HashOnly(benchmark::State& state) {
  Database* db = GlobalDb();
  PlannerOptions options;
  options.star_transformation = false;
  std::string sql = StarQuery(static_cast<int>(state.range(0)));
  ExecStats stats;
  for (auto _ : state) {
    stats = ExecStats{};
    Result<QueryResult> r = db->Query(sql, options, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_joined"] = static_cast<double>(stats.rows_joined);
}
BENCHMARK(BM_HashOnly)->Arg(1)->Arg(10)->Arg(50)->Arg(100)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace tpcds

BENCHMARK_MAIN();
