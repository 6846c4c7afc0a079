// Intra-query parallelism ablation: the same join-heavy star query run
// with the morsel executor at 1, 2, 4 and 8 threads, plus the default
// all-cores run (parallelism 0). Every level runs on the process-wide
// executor pool, so no iteration pays for creating threads. Results are
// byte-identical at every level (the engine_parallel_test suite asserts
// this); only wall time should move. The serial baseline is BM_Workers/1:
// compare BM_AllCores against it for the single-stream speedup users get
// by default.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

Database* GlobalDb() {
  // A larger default than the other benches: morsel parallelism needs
  // enough fact rows per operator to amortise task dispatch.
  static Database* db =
      bench::LoadDatabase(bench::BenchScaleFactor(0.05)).release();
  return db;
}

/// The bench_star_vs_hash star query at a mid selectivity: four tables,
/// three joins, grouped aggregation — every parallel operator on the path.
std::string StarQuery() {
  return "SELECT s_store_name, d_moy, SUM(ss_ext_sales_price) AS revenue "
         "FROM store_sales, date_dim, store, item "
         "WHERE ss_sold_date_sk = d_date_sk "
         "  AND ss_store_sk = s_store_sk "
         "  AND ss_item_sk = i_item_sk "
         "  AND d_year = 2000 "
         "  AND i_manager_id BETWEEN 1 AND 50 "
         "GROUP BY s_store_name, d_moy "
         "ORDER BY revenue DESC";
}

void RunQuery(benchmark::State& state, const std::string& sql,
              int parallelism) {
  Database* db = GlobalDb();
  PlannerOptions options;
  options.parallelism = parallelism;
  int64_t rows = 0;
  for (auto _ : state) {
    Result<QueryResult> r = db->Query(sql, options, nullptr);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    rows = static_cast<int64_t>(r->rows.size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}

void BM_Workers(benchmark::State& state) {
  RunQuery(state, StarQuery(), static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Workers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_AllCores(benchmark::State& state) {
  RunQuery(state, StarQuery(), 0);
}
BENCHMARK(BM_AllCores)->Unit(benchmark::kMillisecond);

// The 3NF shape of the same query (star transformation off): the fact
// table flows through plain hash joins, so the parallel build + probe
// carries the speedup instead of the semi-join reductions.
void BM_WorkersHashOnly(benchmark::State& state) {
  Database* db = GlobalDb();
  PlannerOptions options;
  options.star_transformation = false;
  options.parallelism = static_cast<int>(state.range(0));
  std::string sql = StarQuery();
  for (auto _ : state) {
    Result<QueryResult> r = db->Query(sql, options, nullptr);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WorkersHashOnly)->Arg(1)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace tpcds

// Like BENCHMARK_MAIN(), but with a `-json <path>` convenience flag that
// expands to google-benchmark's --benchmark_out/--benchmark_out_format
// pair so CI invokes every bench the same way.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::strcmp(args[i], "-json") == 0 && i + 1 < args.size()) {
      out_flag = std::string("--benchmark_out=") + args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      break;
    }
  }
  static char format_flag[] = "--benchmark_out_format=json";
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag);
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
