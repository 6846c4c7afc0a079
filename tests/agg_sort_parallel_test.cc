// Parallel aggregation / sort / Top-K tests: the partitioned-hash and
// run-merge paths must be byte-identical to serial execution at any
// parallelism, Top-K fusion must replace sort+limit (and say so in
// EXPLAIN / ExecStats) while using less memory than a full sort, and the
// governor must still trip deadlines and budgets inside all three.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/governor.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// Builds a table of `rows` rows — enough to span many 1024-row morsels
/// and several 16K-row sort runs.
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

std::string Csv(const QueryResult& r) { return r.ToCsv(); }

TEST(TopKPushdownTest, MatchesSortPlusLimitAndReportsCounters) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // The reference is the same ORDER BY without the LIMIT (a full sort),
  // truncated to the limit.
  const std::string sort_sql = "SELECT k, grp, txt FROM t ORDER BY grp, k DESC";
  const std::string sql = sort_sql + " LIMIT 10";

  Result<QueryResult> full_sort = db.Query(sort_sql, PlannerOptions());
  ASSERT_TRUE(full_sort.ok()) << full_sort.status().ToString();
  ASSERT_EQ(full_sort->rows.size(), 50000u);
  full_sort->rows.resize(10);

  for (int workers : {1, 4}) {
    PlannerOptions topk;
    topk.parallelism = workers;
    ExecStats stats;
    Result<QueryResult> fused = db.Query(sql, topk, &stats);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_EQ(Csv(*fused), Csv(*full_sort)) << "parallelism " << workers;
    EXPECT_EQ(stats.topk_seen, 50000) << "parallelism " << workers;
    EXPECT_EQ(stats.topk_kept, 10) << "parallelism " << workers;
    // The fused operator replaces the sort+limit pair in the plan.
    bool saw_topk_op = false;
    bool saw_sort_op = false;
    for (const auto& op : stats.operators) {
      if (op.label.find("top-k") != std::string::npos) {
        saw_topk_op = true;
        EXPECT_EQ(op.topk_seen, 50000);
        EXPECT_EQ(op.topk_kept, 10);
      }
      if (op.label.find("sort") != std::string::npos) saw_sort_op = true;
    }
    EXPECT_TRUE(saw_topk_op) << "parallelism " << workers;
    EXPECT_FALSE(saw_sort_op) << "parallelism " << workers;
  }
}

TEST(TopKPushdownTest, ExplainShowsFusedOperatorWithCounters) {
  Database db;
  BuildWideTable(&db, "t", 5000);
  Result<std::string> plan =
      db.Explain("SELECT k, grp FROM t ORDER BY grp DESC LIMIT 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("top-k"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("topk: kept 7 of 5000 rows"), std::string::npos)
      << *plan;
}

TEST(TopKPushdownTest, UsesLessMemoryThanFullSortUnderSameBudget) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  const std::string proj_sql = "SELECT k, grp, txt FROM t";
  // The full sort is the same ORDER BY without the LIMIT.
  const std::string sort_sql = proj_sql + " ORDER BY grp, k";
  const std::string topk_sql = sort_sql + " LIMIT 5";
  GovernorLimits loose;
  loose.memory_budget_bytes = 1LL << 40;

  // Peak bytes of the projection alone, then of the governed sort/Top-K
  // variants on top of it. The full sort materialises a key per input
  // row; Top-K charges only the keys its bounded heaps retain.
  int64_t peak_proj = 0;
  {
    QueryGovernor gov(loose);
    PlannerOptions options;
    ASSERT_TRUE(db.Query(proj_sql, options, nullptr, &gov).ok());
    peak_proj = gov.peak_bytes();
    ASSERT_GT(peak_proj, 0);
  }
  int64_t peak_full = 0;
  {
    QueryGovernor gov(loose);
    PlannerOptions options;
    ASSERT_TRUE(db.Query(sort_sql, options, nullptr, &gov).ok());
    peak_full = gov.peak_bytes();
  }
  int64_t peak_topk = 0;
  {
    QueryGovernor gov(loose);
    PlannerOptions options;
    ASSERT_TRUE(db.Query(topk_sql, options, nullptr, &gov).ok());
    peak_topk = gov.peak_bytes();
  }
  EXPECT_LT(peak_topk, peak_full);

  // A budget that admits the Top-K keys but not the full sort's keys:
  // the same query then fails as a sort and succeeds as a Top-K.
  int64_t budget = peak_topk + (peak_full - peak_topk) / 2;
  {
    PlannerOptions options;
    options.memory_budget_bytes = budget;
    Result<QueryResult> r = db.Query(sort_sql, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
  }
  {
    PlannerOptions options;
    options.memory_budget_bytes = budget;
    Result<QueryResult> r = db.Query(topk_sql, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ParallelAggregateTest, RollupIsByteIdenticalAcrossParallelismAndRight) {
  Database db;
  BuildWideTable(&db, "t", 20000);
  const std::string sql =
      "SELECT grp, txt, COUNT(*), SUM(k) FROM t "
      "GROUP BY ROLLUP (grp, txt) ORDER BY 1, 2";

  PlannerOptions serial;
  serial.parallelism = 1;
  Result<QueryResult> reference = db.Query(sql, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Brute-force the three ROLLUP levels: (grp, txt), (grp), ().
  std::map<std::pair<int64_t, std::string>, std::pair<int64_t, int64_t>>
      leaf;
  std::map<int64_t, std::pair<int64_t, int64_t>> by_grp;
  std::pair<int64_t, int64_t> grand{0, 0};
  for (int64_t i = 0; i < 20000; ++i) {
    std::string txt = "filler-" + std::to_string(i % 13);
    auto bump = [&](std::pair<int64_t, int64_t>* cell) {
      cell->first += 1;
      cell->second += i;
    };
    bump(&leaf[{i % 97, txt}]);
    bump(&by_grp[i % 97]);
    bump(&grand);
  }
  ASSERT_EQ(reference->rows.size(), leaf.size() + by_grp.size() + 1);
  for (const auto& row : reference->rows) {
    std::pair<int64_t, int64_t> expect;
    if (row[0].is_null()) {
      expect = grand;
    } else if (row[1].is_null()) {
      expect = by_grp.at(row[0].AsInt());
    } else {
      expect = leaf.at({row[0].AsInt(), std::string(row[1].AsString())});
    }
    EXPECT_EQ(row[2].AsInt(), expect.first);
    EXPECT_EQ(row[3].AsInt(), expect.second);
  }

  for (int workers : {2, 4, 8}) {
    PlannerOptions options;
    options.parallelism = workers;
    Result<QueryResult> parallel = db.Query(sql, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(Csv(*parallel), Csv(*reference)) << "parallelism " << workers;
  }
}

TEST(ParallelAggregateTest, DistinctAndSetOpsByteIdenticalAcrossParallelism) {
  Database db;
  BuildWideTable(&db, "t", 30000);
  BuildWideTable(&db, "u", 7000);
  const std::string sqls[] = {
      "SELECT DISTINCT grp, txt FROM t",
      "SELECT grp FROM t INTERSECT SELECT grp FROM u",
      "SELECT grp FROM t EXCEPT SELECT grp FROM u WHERE grp < 40",
      "SELECT grp, txt FROM t UNION SELECT grp, txt FROM u",
  };
  for (const std::string& sql : sqls) {
    PlannerOptions serial;
    serial.parallelism = 1;
    Result<QueryResult> reference = db.Query(sql, serial);
    ASSERT_TRUE(reference.ok()) << sql << ": " << reference.status().ToString();
    for (int workers : {4, 8}) {
      PlannerOptions options;
      options.parallelism = workers;
      Result<QueryResult> parallel = db.Query(sql, options);
      ASSERT_TRUE(parallel.ok()) << sql << ": "
                                 << parallel.status().ToString();
      EXPECT_EQ(Csv(*parallel), Csv(*reference))
          << sql << " at parallelism " << workers;
    }
  }
}

TEST(ParallelGovernanceTest, RowBudgetTripsInsideParallelAggregateBuild) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // 50000 scan rows fit the budget; the aggregate's new-group charges
  // (97 groups re-seen in each of ~49 morsel partials) push it over.
  for (int workers : {1, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    options.row_budget = 51000;
    Result<QueryResult> r =
        db.Query("SELECT grp, COUNT(*) FROM t GROUP BY grp", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << workers;
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos);
  }
}

TEST(ParallelGovernanceTest, MemoryBudgetTripsInsideParallelAggregateBuild) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // Measure the scan-plus-one-group footprint, then grant barely more:
  // the 50000-group GROUP BY k must exhaust the margin building its
  // partitioned hash tables.
  GovernorLimits loose;
  loose.memory_budget_bytes = 1LL << 40;
  QueryGovernor gov(loose);
  PlannerOptions plain;
  ASSERT_TRUE(db.Query("SELECT MAX(k) FROM t", plain, nullptr, &gov).ok());
  for (int workers : {1, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    options.memory_budget_bytes = gov.peak_bytes() + 1024;
    Result<QueryResult> r =
        db.Query("SELECT k, COUNT(*) FROM t GROUP BY k", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << workers;
    EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
  }
}

TEST(ParallelGovernanceTest, DeadlineTripsInsideSortAndTopK) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // Without the LIMIT the plan is a full sort; with it, a fused Top-K.
  for (bool topk : {false, true}) {
    for (int workers : {1, 4}) {
      PlannerOptions options;
      options.parallelism = workers;
      options.timeout_ms = 1e-6;  // expires before the first morsel
      Result<QueryResult> r = db.Query(
          std::string("SELECT k, grp, txt FROM t ORDER BY grp, k") +
              (topk ? " LIMIT 20" : ""),
          options);
      ASSERT_FALSE(r.ok()) << "parallelism " << workers << " topk " << topk;
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << "parallelism " << workers << " topk " << topk;
    }
  }
}

TEST(ParallelGovernanceTest, MemoryBudgetTripsInsideParallelSort) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // Grant the projection's footprint plus a sliver: the sort's key
  // materialisation (one key vector per row) must trip the budget.
  GovernorLimits loose;
  loose.memory_budget_bytes = 1LL << 40;
  QueryGovernor gov(loose);
  PlannerOptions plain;
  ASSERT_TRUE(
      db.Query("SELECT k, grp, txt FROM t", plain, nullptr, &gov).ok());
  for (int workers : {1, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    options.memory_budget_bytes = gov.peak_bytes() + 1024;
    Result<QueryResult> r =
        db.Query("SELECT k, grp, txt FROM t ORDER BY grp, k DESC", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << workers;
    EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
  }
}

TEST(ParallelGovernanceTest, GovernedUnderLimitRunsStayByteIdentical) {
  Database db;
  BuildWideTable(&db, "t", 30000);
  const std::string sqls[] = {
      "SELECT grp, COUNT(*), SUM(k), MIN(txt) FROM t GROUP BY grp "
      "ORDER BY 2 DESC, 1",
      "SELECT grp, txt, COUNT(*) FROM t GROUP BY ROLLUP (grp, txt) "
      "ORDER BY 1, 2 LIMIT 50",
  };
  for (const std::string& sql : sqls) {
    PlannerOptions serial;
    serial.parallelism = 1;
    Result<QueryResult> reference = db.Query(sql, serial);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int workers : {1, 4}) {
      PlannerOptions options;
      options.parallelism = workers;
      options.timeout_ms = 60000.0;
      options.memory_budget_bytes = 1LL << 30;
      options.row_budget = 1LL << 30;
      Result<QueryResult> governed = db.Query(sql, options);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_EQ(Csv(*governed), Csv(*reference))
          << sql << " at parallelism " << workers;
    }
  }
}

}  // namespace
}  // namespace tpcds
