// Intra-query parallelism tests. The executor promises byte-identical
// results at every parallelism level (fixed-size morsels, partial results
// merged in morsel order), so every test here is a determinism check:
// run the same statement at parallelism 1 / 2 / 8 and require identical
// CSV output. Covers each physical operator on a synthetic database large
// enough to span many morsels, then all 99 TPC-DS templates against
// generated data on both storage backings.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine/database.h"
#include "qgen/qgen.h"
#include "templates/templates.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// Runs `sql` at each parallelism level and requires identical CSV output;
/// returns the serial result for content assertions.
QueryResult RunAtAllLevels(Database* db, const std::string& sql) {
  PlannerOptions options = db->default_options();
  options.parallelism = 1;
  Result<QueryResult> serial = db->Query(sql, options, nullptr);
  EXPECT_TRUE(serial.ok()) << sql << "\n" << serial.status().ToString();
  if (!serial.ok()) return QueryResult();
  std::string reference = serial->ToCsv();
  for (int workers : {2, 8}) {
    options.parallelism = workers;
    Result<QueryResult> parallel = db->Query(sql, options, nullptr);
    EXPECT_TRUE(parallel.ok()) << sql << "\n" << parallel.status().ToString();
    if (!parallel.ok()) continue;
    EXPECT_EQ(parallel->ToCsv(), reference)
        << sql << "\nat parallelism " << workers;
  }
  return *std::move(serial);
}

/// Synthetic star: one fact table spanning several 1024-row morsels and
/// two small dimensions. All values are deterministic functions of the
/// row number, with NULLs sprinkled into keys and measures.
class ParallelExecTest : public ::testing::Test {
 protected:
  static constexpr int kFactRows = 5000;

  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTable("fact", {{"f_id", ColumnType::kIdentifier},
                                          {"f_dim", ColumnType::kInteger},
                                          {"f_grp", ColumnType::kInteger},
                                          {"f_val", ColumnType::kInteger},
                                          {"f_price", ColumnType::kDecimal}})
                    .ok());
    ASSERT_TRUE(db_->CreateTable("dim", {{"d_id", ColumnType::kInteger},
                                         {"d_band", ColumnType::kInteger},
                                         {"d_name", ColumnType::kVarchar}})
                    .ok());
    for (int i = 0; i < kFactRows; ++i) {
      std::vector<std::string> fields(5);
      fields[0] = std::to_string(i);
      if (i % 13 != 0) fields[1] = std::to_string(i % 37);
      if (i % 11 != 0) fields[2] = std::to_string(i % 5);
      fields[3] = std::to_string((i * 7) % 101);
      fields[4] = StringPrintf("%d.%02d", (i * 3) % 500, i % 100);
      ASSERT_TRUE(db_->FindTable("fact")->AppendRowStrings(fields).ok());
    }
    for (int d = 0; d < 37; ++d) {
      std::vector<std::string> fields(3);
      fields[0] = std::to_string(d);
      fields[1] = std::to_string(d % 4);
      fields[2] = "name_" + std::to_string(d);
      ASSERT_TRUE(db_->FindTable("dim")->AppendRowStrings(fields).ok());
    }
  }

  static Database* db_;
};

Database* ParallelExecTest::db_ = nullptr;

TEST_F(ParallelExecTest, ScanWithPushedFilters) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT f_id, f_val FROM fact WHERE f_val > 50 AND f_grp = 2 "
           "ORDER BY f_id");
  ASSERT_FALSE(r.rows.empty());
  // Output order equals table order even though morsels filter in parallel.
  EXPECT_EQ(r.rows[0][0].AsInt(), 12);  // first i with 7i%101>50, i%5==2
}

TEST_F(ParallelExecTest, FilterKeepsTableOrderWithoutSort) {
  QueryResult r =
      RunAtAllLevels(db_, "SELECT f_id FROM fact WHERE f_val = 3");
  ASSERT_GT(r.rows.size(), 1u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LT(r.rows[i - 1][0].AsInt(), r.rows[i][0].AsInt());
  }
}

TEST_F(ParallelExecTest, HashJoinInner) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT COUNT(*), SUM(f_val + d_band) FROM fact, dim "
           "WHERE f_dim = d_id");
  // NULL f_dim rows (every 13th) never join.
  EXPECT_EQ(r.rows[0][0].AsInt(), kFactRows - (kFactRows + 12) / 13);
}

TEST_F(ParallelExecTest, HashJoinLeftOuterPadsUnmatched) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT COUNT(*), COUNT(d_name) FROM fact LEFT JOIN dim "
           "ON f_dim = d_id");
  EXPECT_EQ(r.rows[0][0].AsInt(), kFactRows);  // unmatched rows padded
  EXPECT_EQ(r.rows[0][1].AsInt(), kFactRows - (kFactRows + 12) / 13);
}

TEST_F(ParallelExecTest, NestedLoopJoinWithResidualOnly) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT COUNT(*) FROM fact, dim WHERE f_dim < d_id AND d_id < 3");
  ASSERT_FALSE(r.rows.empty());
  EXPECT_GT(r.rows[0][0].AsInt(), 0);
}

TEST_F(ParallelExecTest, AggregateGroupByWithNullGroupAndDecimalSum) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT f_grp, COUNT(*), SUM(f_price), MIN(f_val), MAX(f_val) "
           "FROM fact GROUP BY f_grp ORDER BY f_grp");
  EXPECT_EQ(r.rows.size(), 6u);  // groups 0..4 plus the NULL group
}

TEST_F(ParallelExecTest, AggregateDistinctMergesAcrossMorsels) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT COUNT(DISTINCT f_dim), COUNT(DISTINCT f_val) FROM fact");
  EXPECT_EQ(r.rows[0][0].AsInt(), 37);
  EXPECT_EQ(r.rows[0][1].AsInt(), 101);
}

TEST_F(ParallelExecTest, AggregateRollup) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT f_grp, f_dim, SUM(f_val) FROM fact "
           "WHERE f_dim < 3 GROUP BY ROLLUP (f_grp, f_dim) "
           "ORDER BY f_grp, f_dim");
  ASSERT_FALSE(r.rows.empty());
}

TEST_F(ParallelExecTest, AggregateOverEmptyInputYieldsOneRow) {
  QueryResult r = RunAtAllLevels(
      db_, "SELECT COUNT(*), SUM(f_val) FROM fact WHERE f_val > 1000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ParallelExecTest, SortWithDuplicateKeysIsStable) {
  RunAtAllLevels(db_,
                 "SELECT f_grp, f_id FROM fact ORDER BY f_grp DESC LIMIT 64");
}

TEST_F(ParallelExecTest, DistinctAndSetOps) {
  RunAtAllLevels(db_, "SELECT DISTINCT f_grp, f_dim FROM fact "
                      "ORDER BY f_grp, f_dim");
  RunAtAllLevels(db_,
                 "SELECT f_dim FROM fact WHERE f_grp = 1 UNION "
                 "SELECT f_dim FROM fact WHERE f_grp = 2 ORDER BY f_dim");
  RunAtAllLevels(db_,
                 "SELECT f_dim FROM fact WHERE f_grp = 1 INTERSECT "
                 "SELECT f_dim FROM fact WHERE f_val > 90 ORDER BY f_dim");
}

TEST_F(ParallelExecTest, WindowFunctions) {
  RunAtAllLevels(
      db_, "SELECT d_id, d_band, RANK() OVER (PARTITION BY d_band "
           "ORDER BY d_id DESC) AS rk FROM dim ORDER BY d_band, rk, d_id");
}

TEST_F(ParallelExecTest, StarTransformedJoinMatchesPlainJoin) {
  // Three-way join triggers the semi-join reduction; the reduced plan,
  // the plain hash plan, and every parallelism level must all agree.
  std::string sql =
      "SELECT d_band, COUNT(*), SUM(f_val) FROM fact, dim "
      "WHERE f_dim = d_id AND d_band = 2 AND f_grp = 1 "
      "GROUP BY d_band ORDER BY d_band";
  QueryResult with_star = RunAtAllLevels(db_, sql);
  PlannerOptions no_star = db_->default_options();
  no_star.star_transformation = false;
  Result<QueryResult> plain = db_->Query(sql, no_star, nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->ToCsv(), with_star.ToCsv());
}

TEST_F(ParallelExecTest, IndexJoinPath) {
  PlannerOptions options = db_->default_options();
  options.parallelism = 1;
  // dim is unfiltered and joined by one integer equality: index-joined.
  std::string sql =
      "SELECT COUNT(*), SUM(d_band) FROM fact, dim WHERE f_dim = d_id";
  ExecStats stats;
  Result<QueryResult> serial = db_->Query(sql, options, &stats);
  ASSERT_TRUE(serial.ok());
  bool index_join = false;
  for (const ExecStats::OpStat& op : stats.operators) {
    index_join |= op.label == "index join dim (no scan)";
  }
  EXPECT_TRUE(index_join);
  for (int workers : {2, 8}) {
    options.parallelism = workers;
    Result<QueryResult> parallel = db_->Query(sql, options, nullptr);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->ToCsv(), serial->ToCsv());
  }
}

TEST_F(ParallelExecTest, ParallelismZeroMeansAllCores) {
  PlannerOptions options = db_->default_options();
  options.parallelism = 0;
  Result<QueryResult> r = db_->Query(
      "SELECT f_grp, COUNT(*) FROM fact GROUP BY f_grp ORDER BY f_grp",
      options, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 6u);
}

TEST_F(ParallelExecTest, SubqueryInsidePredicate) {
  RunAtAllLevels(
      db_, "SELECT COUNT(*) FROM fact WHERE f_dim IN "
           "(SELECT d_id FROM dim WHERE d_band = 0)");
}

TEST_F(ParallelExecTest, CteConsumedTwice) {
  RunAtAllLevels(
      db_, "WITH bands AS (SELECT d_band, COUNT(*) AS cnt FROM dim "
           "GROUP BY d_band) "
           "SELECT a.d_band, a.cnt + b.cnt FROM bands a, bands b "
           "WHERE a.d_band = b.d_band ORDER BY a.d_band");
}

/// Thread-count differential over the real workload: every one of the 99
/// TPC-DS templates on generated data must produce byte-identical CSV
/// serially and at the default parallelism (the path users get), on the
/// heap and on the mmap-attached (zero-copy) backing of the same data.
class TemplateDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    heap_ = new Database();
    ASSERT_TRUE(heap_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(heap_->LoadTpcdsData(options).ok());
    ckpt_dir_ = ::testing::TempDir() + "template_differential_ckpt_" +
                std::to_string(::getpid());
    std::filesystem::remove_all(ckpt_dir_);
    Status saved = heap_->SaveCheckpoint(ckpt_dir_);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    mapped_ = new Database();
    Status attached = mapped_->AttachCheckpoint(ckpt_dir_);
    ASSERT_TRUE(attached.ok()) << attached.ToString();
  }

  static void TearDownTestSuite() {
    delete mapped_;
    mapped_ = nullptr;
    delete heap_;
    heap_ = nullptr;
    std::filesystem::remove_all(ckpt_dir_);
  }

  static Database* heap_;
  static Database* mapped_;
  static std::string ckpt_dir_;
};

Database* TemplateDifferentialTest::heap_ = nullptr;
Database* TemplateDifferentialTest::mapped_ = nullptr;
std::string TemplateDifferentialTest::ckpt_dir_;

TEST_F(TemplateDifferentialTest, AllTemplatesAgreeAcrossThreadCountsAndBackings) {
  const int default_parallelism = PlannerOptions().parallelism;
  const std::vector<QueryTemplate>& templates = AllTemplates();
  ASSERT_EQ(templates.size(), 99u);
  QueryGenerator qgen(19620718);
  for (const QueryTemplate& tmpl : templates) {
    Result<std::string> sql = qgen.Instantiate(tmpl, 0);
    ASSERT_TRUE(sql.ok()) << "template " << tmpl.id;

    PlannerOptions options = heap_->default_options();
    options.parallelism = 1;
    Result<QueryResult> serial = heap_->Query(*sql, options, nullptr);
    ASSERT_TRUE(serial.ok())
        << "template " << tmpl.id << ": " << serial.status().ToString();
    std::string reference = serial->ToCsv();
    // 4 pins a fixed parallel setting on every host; 8 keeps the sweep
    // parallel on a host with fewer cores.
    for (Database* db : {heap_, mapped_}) {
      for (int workers : {1, default_parallelism, 4, 8}) {
        if (db == heap_ && workers == 1) continue;  // the reference
        options.parallelism = workers;
        Result<QueryResult> run = db->Query(*sql, options, nullptr);
        ASSERT_TRUE(run.ok())
            << "template " << tmpl.id << ": " << run.status().ToString();
        EXPECT_EQ(run->ToCsv(), reference)
            << "template " << tmpl.id << " at parallelism " << workers
            << (db == heap_ ? " on the heap" : " on the mmap backing");
      }
    }
  }
}

}  // namespace
}  // namespace tpcds
