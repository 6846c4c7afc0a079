// Structural planner tests (docs/PLANNER.md): joins and the star chain
// run in FROM order, a plan depends on the SQL text and the schema alone
// (never on table data), local filters push into their scan, and nothing
// estimates, keeps or persists statistics.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/table.h"
#include "maintenance/maintenance.h"
#include "qgen/qgen.h"
#include "templates/templates.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// A mini star schema: fact `f` with three dimension keys, dimensions
/// `a`, `b` and `c` of very different sizes.
Status CreateStarSchema(Database* db) {
  TPCDS_RETURN_NOT_OK(db->CreateTable(
      "f", {{"f_a", ColumnType::kIdentifier},
            {"f_b", ColumnType::kIdentifier},
            {"f_c", ColumnType::kIdentifier},
            {"f_amt", ColumnType::kInteger}}));
  TPCDS_RETURN_NOT_OK(db->CreateTable(
      "a", {{"a_id", ColumnType::kIdentifier}, {"a_grp", ColumnType::kInteger}}));
  TPCDS_RETURN_NOT_OK(db->CreateTable(
      "b", {{"b_id", ColumnType::kIdentifier}, {"b_grp", ColumnType::kInteger}}));
  return db->CreateTable(
      "c", {{"c_id", ColumnType::kIdentifier}, {"c_grp", ColumnType::kInteger}});
}

/// Fills the star schema: `a_rows`, `b_rows` and `c_rows` dimension rows
/// (id i, group i % 4) and `fact_rows` fact rows referencing them.
Status LoadStar(Database* db, int fact_rows, int a_rows, int b_rows,
                int c_rows) {
  const struct {
    const char* name;
    int rows;
  } dims[] = {{"a", a_rows}, {"b", b_rows}, {"c", c_rows}};
  for (const auto& dim : dims) {
    EngineTable* t = db->FindTable(dim.name);
    for (int i = 0; i < dim.rows; ++i) {
      TPCDS_RETURN_NOT_OK(
          t->AppendRowStrings({std::to_string(i), std::to_string(i % 4)}));
    }
  }
  EngineTable* f = db->FindTable("f");
  for (int i = 0; i < fact_rows; ++i) {
    TPCDS_RETURN_NOT_OK(f->AppendRowStrings(
        {std::to_string(i % a_rows), std::to_string((i * 7) % b_rows),
         std::to_string((i * 13) % c_rows), std::to_string(i % 100)}));
  }
  return Status::OK();
}

/// Runs `sql` and returns the labels of its executed operators (pre-order)
/// whose label starts with `prefix`.
std::vector<std::string> OpLabels(Database* db, const std::string& sql,
                                  const PlannerOptions& options,
                                  const std::string& prefix,
                                  std::string* csv = nullptr) {
  ExecStats stats;
  Result<QueryResult> r = db->Query(sql, options, &stats);
  EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  if (!r.ok()) return {};
  if (csv != nullptr) *csv = r->ToCsv();
  std::vector<std::string> labels;
  for (const ExecStats::OpStat& op : stats.operators) {
    if (op.executed && op.label.rfind(prefix, 0) == 0) {
      labels.push_back(op.label);
    }
  }
  return labels;
}

/// The scanned table of each "scan <table>: ..." label, in order.
std::vector<std::string> ScanTables(const std::vector<std::string>& labels) {
  std::vector<std::string> tables;
  for (const std::string& label : labels) {
    tables.push_back(label.substr(5, label.find(':') - 5));
  }
  return tables;
}

/// Every operator label of the plan, in pre-order with its depth: the
/// plan's shape without its run-time counters.
std::vector<std::string> PlanShape(Database* db, const std::string& sql,
                                   const PlannerOptions& options) {
  ExecStats stats;
  Result<QueryResult> r = db->Query(sql, options, &stats);
  EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  std::vector<std::string> shape;
  for (const ExecStats::OpStat& op : stats.operators) {
    shape.push_back(std::string(static_cast<size_t>(op.depth) * 2, ' ') +
                    op.label);
  }
  return shape;
}

class StructuralPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(CreateStarSchema(&db_).ok());
    ASSERT_TRUE(LoadStar(&db_, 2000, 400, 40, 4).ok());
    options_ = db_.default_options();
    options_.parallelism = 1;
  }

  Database db_;
  PlannerOptions options_;
};

TEST_F(StructuralPlannerTest, CommaJoinsRunInFromOrder) {
  // Star transformation off: a pure left-deep pipeline, so the pre-order
  // scans list the FROM entries left to right and the joins (outermost
  // first) follow them too. Nothing reorders: an entry with no equality to
  // the running result is a cross product, even when a later entry would
  // have connected it. The filters that keep every row hold a, c and f on
  // the scan + hash-join path (unfiltered, each would be index-joined).
  options_.star_transformation = false;
  const struct {
    std::vector<std::string> order;
    std::vector<std::string> joins;
  } cases[] = {
      {{"f", "a", "b", "c"},
       {"hash join: 1 equi keys, 0 residual",
        "hash join: 1 equi keys, 0 residual",
        "hash join: 1 equi keys, 0 residual"}},
      {{"b", "f", "c", "a"},
       {"hash join: 1 equi keys, 0 residual",
        "hash join: 1 equi keys, 0 residual",
        "hash join: 1 equi keys, 0 residual"}},
      {{"c", "b", "a", "f"},
       {"hash join: 3 equi keys, 0 residual",
        "nested-loop join: 0 equi keys, 0 residual",
        "nested-loop join: 0 equi keys, 0 residual"}}};
  std::string reference;
  for (const auto& c : cases) {
    const std::string sql =
        "SELECT a_grp, COUNT(*), SUM(f_amt) FROM " + Join(c.order, ", ") +
        " WHERE f_a = a_id AND f_b = b_id AND f_c = c_id AND b_grp = 1 "
        "AND a_grp >= 0 AND c_grp >= 0 AND f_amt >= 0 "
        "GROUP BY a_grp ORDER BY a_grp";
    SCOPED_TRACE(sql);
    std::string csv;
    std::vector<std::string> scans =
        OpLabels(&db_, sql, options_, "scan ", &csv);
    EXPECT_EQ(ScanTables(scans), c.order);
    std::vector<std::string> joins;
    for (const std::string& label : OpLabels(&db_, sql, options_, "")) {
      if (label.find("join") != std::string::npos) joins.push_back(label);
    }
    EXPECT_EQ(joins, c.joins);
    if (reference.empty()) reference = csv;
    EXPECT_EQ(csv, reference);
  }
}

TEST_F(StructuralPlannerTest, StarChainRunsInFromOrder) {
  // With the fact first, each later dimension wraps the fact in one
  // semi-join reduction; the chain follows the dimensions' FROM order
  // whatever their sizes (a: 400 rows, b: 40, c: 4).
  const std::vector<std::vector<std::string>> dim_orders = {
      {"a", "b", "c"}, {"c", "b", "a"}, {"b", "c", "a"}};
  std::string reference;
  for (const std::vector<std::string>& dims : dim_orders) {
    const std::string sql =
        "SELECT COUNT(*), SUM(f_amt) FROM f, " + Join(dims, ", ") +
        " WHERE f_a = a_id AND f_b = b_id AND f_c = c_id "
        "AND a_grp = 1 AND b_grp < 3 AND c_grp > 0";
    SCOPED_TRACE(sql);
    std::string csv;
    std::vector<std::string> semis =
        OpLabels(&db_, sql, options_, "star semi-join on ", &csv);
    ASSERT_EQ(semis.size(), 3u);
    // Pre-order lists the outermost reduction first: the last dimension.
    for (size_t i = 0; i < dims.size(); ++i) {
      EXPECT_NE(semis[dims.size() - 1 - i].find("f_" + dims[i]),
                std::string::npos)
          << semis[dims.size() - 1 - i];
    }
    if (reference.empty()) reference = csv;
    EXPECT_EQ(csv, reference);
  }
}

TEST_F(StructuralPlannerTest, StarChainNeedsThreeFromEntries) {
  const std::string two = "SELECT COUNT(*) FROM f, a WHERE f_a = a_id "
                          "AND a_grp = 2";
  // b_grp >= 0 keeps every b row and holds b on the scan path (an
  // unfiltered b would be index-joined, which the star chain skips).
  const std::string three = "SELECT COUNT(*) FROM f, a, b WHERE f_a = a_id "
                            "AND f_b = b_id AND a_grp = 2 AND b_grp >= 0";
  EXPECT_TRUE(OpLabels(&db_, two, options_, "star semi-join").empty());
  EXPECT_EQ(OpLabels(&db_, three, options_, "star semi-join").size(), 2u);
  options_.star_transformation = false;
  EXPECT_TRUE(OpLabels(&db_, three, options_, "star semi-join").empty());
}

TEST_F(StructuralPlannerTest, PlanDependsOnSchemaNotData) {
  // The same statement plans identically over an empty copy of the schema
  // and over data whose dimension sizes are reversed: no plan decision
  // reads row counts, value ranges or distinct counts.
  Database empty;
  ASSERT_TRUE(CreateStarSchema(&empty).ok());
  Database reversed;
  ASSERT_TRUE(CreateStarSchema(&reversed).ok());
  ASSERT_TRUE(LoadStar(&reversed, 500, 4, 40, 400).ok());
  const std::string sqls[] = {
      "SELECT a_grp, SUM(f_amt) FROM f, a, b, c WHERE f_a = a_id "
      "AND f_b = b_id AND f_c = c_id AND c_grp = 3 GROUP BY a_grp",
      "SELECT b_grp, COUNT(*) FROM b, f WHERE f_b = b_id AND f_amt < 10 "
      "GROUP BY b_grp ORDER BY b_grp LIMIT 3",
      "SELECT COUNT(*) FROM a, c WHERE a_grp < c_grp"};
  for (const std::string& sql : sqls) {
    for (bool star : {true, false}) {
      SCOPED_TRACE(sql + (star ? " (star)" : " (3NF)"));
      options_.star_transformation = star;
      std::vector<std::string> shape = PlanShape(&db_, sql, options_);
      ASSERT_FALSE(shape.empty());
      EXPECT_EQ(PlanShape(&empty, sql, options_), shape);
      EXPECT_EQ(PlanShape(&reversed, sql, options_), shape);
    }
  }
}

TEST_F(StructuralPlannerTest, LocalFiltersPushIntoTheirScan) {
  // Single-table conjuncts go into that table's scan; the join equality
  // becomes the hash join's key and a two-table inequality its residual.
  options_.star_transformation = false;
  const std::string sql =
      "SELECT COUNT(*) FROM f, a WHERE f_a = a_id AND f_amt >= 50 "
      "AND f_amt < 90 AND a_grp = 1 AND f_amt > a_grp";
  std::vector<std::string> scans = OpLabels(&db_, sql, options_, "scan ");
  ASSERT_EQ(scans.size(), 2u);
  EXPECT_NE(scans[0].find("scan f: "), std::string::npos) << scans[0];
  EXPECT_NE(scans[0].find("2 pushed filters"), std::string::npos) << scans[0];
  EXPECT_NE(scans[1].find("scan a: "), std::string::npos) << scans[1];
  EXPECT_NE(scans[1].find("1 pushed filters"), std::string::npos) << scans[1];
  std::vector<std::string> joins = OpLabels(&db_, sql, options_, "hash join");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0], "hash join: 1 equi keys, 1 residual");

  // Hand count: f rows with 50 <= amt < 90 whose a key has group 1.
  int64_t want = 0;
  for (int i = 0; i < 2000; ++i) {
    const int amt = i % 100;
    if (amt >= 50 && amt < 90 && (i % 400) % 4 == 1 && amt > 1) ++want;
  }
  Result<QueryResult> r = db_.Query(sql, options_, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), want);
}

TEST_F(StructuralPlannerTest, NoEqualityMeansNestedLoopJoin) {
  const std::string sql =
      "SELECT COUNT(*) FROM b, c WHERE b_grp < c_grp";
  std::vector<std::string> joins =
      OpLabels(&db_, sql, options_, "nested-loop join");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0], "nested-loop join: 0 equi keys, 1 residual");
  // b has 10 rows of each group 0..3, c one of each: pairs with g_b < g_c
  // number 10 * (3 + 2 + 1).
  Result<QueryResult> r = db_.Query(sql, options_, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 60);
}

TEST_F(StructuralPlannerTest, ExplainAndStatsCarryNoEstimates) {
  // Nothing estimates: AnalyzeStorage has nothing to collect, the q-error
  // stays 0 and EXPLAIN prints no estimate columns.
  EXPECT_EQ(db_.AnalyzeStorage(), 0u);
  const std::string sql =
      "SELECT a_grp, COUNT(*) FROM f, a, b WHERE f_a = a_id AND f_b = b_id "
      "AND b_grp = 2 GROUP BY a_grp";
  for (int workers : {1, 4}) {
    SCOPED_TRACE(StringPrintf("parallelism %d", workers));
    options_.parallelism = workers;
    ExecStats stats;
    Result<QueryResult> r = db_.Query(sql, options_, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.max_q_error, 0.0);
    EXPECT_FALSE(stats.operators.empty());
  }
  Result<std::string> explain = db_.Explain(sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("star semi-join"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("est"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("q-error"), std::string::npos) << *explain;
}

TEST_F(StructuralPlannerTest, CheckpointPersistsNoStatistics) {
  const std::string dir = ::testing::TempDir() + "planner_ckpt";
  std::filesystem::remove_all(dir);
  Status saved = db_.SaveCheckpoint(dir);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + "/STATS"));

  // A restored database plans and answers exactly as the original.
  const std::string sql =
      "SELECT c_grp, SUM(f_amt) FROM f, c, a WHERE f_c = c_id "
      "AND f_a = a_id AND a_grp = 3 GROUP BY c_grp ORDER BY c_grp";
  std::string want;
  OpLabels(&db_, sql, options_, "", &want);
  for (bool attach : {false, true}) {
    SCOPED_TRACE(attach ? "attach" : "deep load");
    Database restored;
    Status st = attach ? restored.AttachCheckpoint(dir)
                       : restored.LoadCheckpoint(dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(PlanShape(&restored, sql, options_),
              PlanShape(&db_, sql, options_));
    std::string got;
    OpLabels(&restored, sql, options_, "", &got);
    EXPECT_EQ(got, want);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(StructuralPlannerTest, EligibleEntryIsIndexJoinedNotScanned) {
  // An unfiltered comma-joined base table equi-joined to the earlier
  // inputs on one integer column is probed through its hash index, never
  // scanned, and answers as the scan + hash-join plan does.
  options_.star_transformation = false;
  const std::string sql =
      "SELECT a_grp, COUNT(*), SUM(f_amt) FROM f, a WHERE f_a = a_id "
      "GROUP BY a_grp ORDER BY a_grp";
  std::string csv;
  EXPECT_EQ(OpLabels(&db_, sql, options_, "index join ", &csv),
            std::vector<std::string>{"index join a (no scan)"});
  EXPECT_EQ(ScanTables(OpLabels(&db_, sql, options_, "scan ")),
            std::vector<std::string>{"f"});
  EXPECT_TRUE(OpLabels(&db_, sql, options_, "hash join").empty());

  // The same join held on the hash path by a filter that keeps every row.
  const std::string held =
      "SELECT a_grp, COUNT(*), SUM(f_amt) FROM f, a WHERE f_a = a_id "
      "AND a_grp >= 0 GROUP BY a_grp ORDER BY a_grp";
  std::string held_csv;
  EXPECT_TRUE(OpLabels(&db_, held, options_, "index join", &held_csv).empty());
  EXPECT_EQ(held_csv, csv);
}

TEST_F(StructuralPlannerTest, IneligibleEntriesKeepScanAndHashJoin) {
  // Each statement's second FROM entry breaks one condition of the rule,
  // so it is scanned and joined by a hash (or nested-loop) join.
  options_.star_transformation = false;
  const struct {
    const char* why;
    std::string sql;
    std::vector<std::string> scans;
    std::string join;
  } cases[] = {
      {"local filter",
       "SELECT COUNT(*) FROM f, a WHERE f_a = a_id AND a_grp = 1",
       {"f", "a"},
       "hash join: 1 equi keys, 0 residual"},
      {"two joining conjuncts",
       "SELECT COUNT(*) FROM f, a WHERE f_a = a_id AND f_amt = a_grp",
       {"f", "a"},
       "hash join: 2 equi keys, 0 residual"},
      {"equality plus inequality",
       "SELECT COUNT(*) FROM f, a WHERE f_a = a_id AND f_amt > a_grp",
       {"f", "a"},
       "hash join: 1 equi keys, 1 residual"},
      {"non-equality join",
       "SELECT COUNT(*) FROM f, a WHERE f_a < a_id",
       {"f", "a"},
       "nested-loop join: 0 equi keys, 1 residual"},
      {"JOIN ... ON",
       "SELECT COUNT(*) FROM f JOIN a ON f_a = a_id",
       {"f", "a"},
       "hash join: 1 equi keys, 0 residual"},
      {"derived entry",
       "SELECT COUNT(*) FROM f, (SELECT a_id FROM a) d WHERE f_a = d.a_id",
       {"f", "a"},
       "hash join: 1 equi keys, 0 residual"},
      {"CTE probe side",
       "WITH x AS (SELECT f_a AS xa FROM f) "
       "SELECT COUNT(*) FROM x, a WHERE xa = a_id",
       {"f", "a"},
       "hash join: 1 equi keys, 0 residual"},
      {"expression key",
       "SELECT COUNT(*) FROM f, a WHERE f_a + 0 = a_id",
       {"f", "a"},
       "hash join: 1 equi keys, 0 residual"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.why);
    std::string csv;
    EXPECT_TRUE(OpLabels(&db_, c.sql, options_, "index join", &csv).empty());
    EXPECT_EQ(ScanTables(OpLabels(&db_, c.sql, options_, "scan ")), c.scans);
    std::vector<std::string> joins;
    for (const std::string& label : OpLabels(&db_, c.sql, options_, "")) {
      if (label.find("join") != std::string::npos) joins.push_back(label);
    }
    EXPECT_EQ(joins, std::vector<std::string>{c.join});
  }
}

TEST_F(StructuralPlannerTest, StarChainSkipsIndexJoinedEntries) {
  // b is unfiltered: it is index-joined and gets no semi-join reduction;
  // the filtered a and c still reduce the fact, in FROM order.
  const std::string sql =
      "SELECT COUNT(*), SUM(f_amt) FROM f, a, b, c WHERE f_a = a_id "
      "AND f_b = b_id AND f_c = c_id AND a_grp = 1 AND c_grp = 2";
  std::vector<std::string> semis =
      OpLabels(&db_, sql, options_, "star semi-join on ");
  ASSERT_EQ(semis.size(), 2u);
  EXPECT_NE(semis[0].find("f_c"), std::string::npos) << semis[0];
  EXPECT_NE(semis[1].find("f_a"), std::string::npos) << semis[1];
  EXPECT_EQ(OpLabels(&db_, sql, options_, "index join "),
            std::vector<std::string>{"index join b (no scan)"});
  // A memoised dimension lists its scan under both consumers.
  std::vector<std::string> scans =
      ScanTables(OpLabels(&db_, sql, options_, "scan "));
  EXPECT_EQ(std::set<std::string>(scans.begin(), scans.end()),
            (std::set<std::string>{"f", "a", "c"}));

  // Hand count: fact rows whose a key has group 1 and c key group 2.
  int64_t count = 0;
  int64_t sum = 0;
  for (int i = 0; i < 2000; ++i) {
    if ((i % 400) % 4 == 1 && ((i * 13) % 4) % 4 == 2) {
      ++count;
      sum += i % 100;
    }
  }
  Result<QueryResult> result = db_.Query(sql, options_, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt(), count);
  EXPECT_EQ(result->rows[0][1].AsInt(), sum);
}

/// Probe keys that are not integer columns: `l` holds the same numbers
/// 0..9 as an integer, a decimal and a string; `r` holds ids 0..9 plus
/// extra rows 0 and 500. Index-probing with such a key would read the
/// decimal's cents (or 0 for a double or string), so the rule keeps them
/// on the hash join, whose answers are computed here in plain C++.
TEST(IndexJoinKeyTypeTest, NonIntegerProbeKeysAnswerAsTheHashJoin) {
  Database db;
  ASSERT_TRUE(db.CreateTable("l", {{"l_int", ColumnType::kInteger},
                                   {"l_dec", ColumnType::kDecimal},
                                   {"l_str", ColumnType::kVarchar}})
                  .ok());
  ASSERT_TRUE(db.CreateTable("r", {{"r_id", ColumnType::kIdentifier},
                                   {"r_val", ColumnType::kInteger}})
                  .ok());
  EngineTable* l = db.FindTable("l");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(l->AppendRowStrings({std::to_string(i),
                                     std::to_string(i) + ".00",
                                     std::to_string(i)})
                    .ok());
  }
  const std::vector<int64_t> r_ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 500};
  EngineTable* r = db.FindTable("r");
  for (size_t j = 0; j < r_ids.size(); ++j) {
    ASSERT_TRUE(r->AppendRowStrings({std::to_string(r_ids[j]),
                                     std::to_string(100 + j)})
                    .ok());
  }
  // Numeric keys match by value; a string never equals a number.
  int64_t numeric_count = 0;
  int64_t numeric_sum = 0;
  for (int i = 0; i < 10; ++i) {
    for (size_t j = 0; j < r_ids.size(); ++j) {
      if (static_cast<double>(i) == static_cast<double>(r_ids[j])) {
        ++numeric_count;
        numeric_sum += i + 100 + static_cast<int64_t>(j);
      }
    }
  }
  ASSERT_EQ(numeric_count, 11);

  PlannerOptions options = db.default_options();
  options.parallelism = 1;
  const struct {
    const char* key;
    int64_t count;
    int64_t sum;  // unused when count is 0 (SUM is NULL)
    bool index_join;
  } cases[] = {{"l_int", numeric_count, numeric_sum, true},
               {"l_dec", numeric_count, numeric_sum, false},
               {"l_int * 1.0 / 1", numeric_count, numeric_sum, false},
               {"l_str", 0, 0, false}};
  for (const auto& c : cases) {
    const std::string sql = StringPrintf(
        "SELECT COUNT(*), SUM(l_int + r_val) FROM l, r WHERE %s = r_id",
        c.key);
    SCOPED_TRACE(sql);
    Result<QueryResult> result = db.Query(sql, options, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows[0][0].AsInt(), c.count);
    if (c.count == 0) {
      EXPECT_TRUE(result->rows[0][1].is_null());
    } else {
      EXPECT_EQ(result->rows[0][1].AsInt(), c.sum);
    }
    EXPECT_EQ(OpLabels(&db, sql, options, "index join").size(),
              c.index_join ? 1u : 0u);
    EXPECT_EQ(ScanTables(OpLabels(&db, sql, options, "scan ")),
              c.index_join ? std::vector<std::string>{"l"}
                           : (std::vector<std::string>{"l", "r"}));
  }
}

TEST(StructuralPlannerMaintenanceTest, RefreshKeepsPlansAndSerialParallelAgreement) {
  // A data-maintenance generation changes the data, not the plans: the
  // sampled templates keep their plan shapes across the refresh and still
  // answer identically serially and at parallelism 4.
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());

  const int kSample[] = {3, 7, 19, 42, 52, 55};
  QueryGenerator qgen(19620718);
  std::vector<std::string> sqls;
  PlannerOptions serial = db.default_options();
  serial.parallelism = 1;
  std::vector<std::vector<std::string>> shapes;
  for (int id : kSample) {
    const QueryTemplate* tmpl = FindTemplate(id);
    ASSERT_NE(tmpl, nullptr) << "template " << id;
    Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
    ASSERT_TRUE(sql.ok()) << "template " << id;
    sqls.push_back(*sql);
    shapes.push_back(PlanShape(&db, *sql, serial));
  }

  MaintenanceOptions dm;
  dm.scale_factor = 0.001;
  MaintenanceReport report;
  Status st = RunMaintenanceGeneration(&db, dm, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();

  PlannerOptions parallel = serial;
  parallel.parallelism = 4;
  for (size_t i = 0; i < sqls.size(); ++i) {
    SCOPED_TRACE(StringPrintf("template %d", kSample[i]));
    EXPECT_EQ(PlanShape(&db, sqls[i], serial), shapes[i]);
    Result<QueryResult> one = db.Query(sqls[i], serial, nullptr);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    Result<QueryResult> four = db.Query(sqls[i], parallel, nullptr);
    ASSERT_TRUE(four.ok()) << four.status().ToString();
    EXPECT_EQ(four->ToCsv(), one->ToCsv());
  }
}

}  // namespace
}  // namespace tpcds
