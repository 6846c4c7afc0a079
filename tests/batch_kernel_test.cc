// Unit tests for the vectorized columnar primitives in engine/batch.{h,cc}:
// typed scan kernels over raw storage, zone-map construction and pruning,
// the Bloom filter, raw-storage key coercion, and the planner's
// kernel-vs-residual classification of pushed scan filters.

#include "engine/batch.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/expr_eval.h"
#include "engine/parser.h"
#include "engine/plan.h"
#include "engine/table.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

// ---- ApplyScanKernel ----------------------------------------------------

/// Builds an int-backed column from parsed fields ("" = NULL).
StorageColumn MakeIntColumn(const std::vector<std::string>& fields,
                            ColumnType type = ColumnType::kInteger) {
  StorageColumn c(type);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

StorageColumn MakeStrColumn(const std::vector<std::string>& fields) {
  StorageColumn c(ColumnType::kVarchar);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

SelectionVector Identity(size_t n) {
  SelectionVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

TEST(ApplyScanKernelTest, IntRangeKeepsInclusiveBoundsAndDropsNulls) {
  StorageColumn c = MakeIntColumn({"1", "5", "", "10", "11", "4"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 5;
  k.hi = 10;
  SelectionVector sel = Identity(6);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 3}));  // 5 and 10 inclusive; NULL drops
}

TEST(ApplyScanKernelTest, IntRangeNegatedKeepsOutsideAndStillDropsNulls) {
  StorageColumn c = MakeIntColumn({"1", "5", "", "10", "11", "4"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 5;
  k.hi = 10;
  k.negated = true;  // NOT BETWEEN: outside the range, NULL still unknown
  SelectionVector sel = Identity(6);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 4, 5}));
}

TEST(ApplyScanKernelTest, NegatedEmptyRangeKeepsAllNonNullRows) {
  // "x <> 7" compiles to a negated single-point range; the negation of an
  // *empty* range (always-false kernel encoding lo > hi) must keep every
  // non-null row.
  StorageColumn c = MakeIntColumn({"1", "", "7"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = std::numeric_limits<int64_t>::max();
  k.hi = std::numeric_limits<int64_t>::min();
  k.negated = true;
  SelectionVector sel = Identity(3);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2}));
}

TEST(ApplyScanKernelTest, IntInAndNegatedIn) {
  StorageColumn c = MakeIntColumn({"3", "8", "", "5", "9"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntIn;
  k.col = 0;
  k.values = {3, 5};  // sorted, as the compiler produces
  SelectionVector sel = Identity(5);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));

  k.negated = true;
  sel = Identity(5);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 4}));  // NULL is unknown either way
}

TEST(ApplyScanKernelTest, NullTestBothDirections) {
  StorageColumn c = MakeIntColumn({"3", "", "", "5"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kNullTest;
  k.col = 0;
  SelectionVector sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 2}));  // IS NULL

  k.negated = true;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));  // IS NOT NULL
}

TEST(ApplyScanKernelTest, AlwaysFalseClearsSelection) {
  StorageColumn c = MakeIntColumn({"1", "2"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kAlwaysFalse;
  k.col = 0;
  SelectionVector sel = Identity(2);
  ApplyScanKernel(k, c, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(ApplyScanKernelTest, EmptySelectionStaysEmpty) {
  StorageColumn c = MakeIntColumn({"1", "2"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 0;
  k.hi = 100;
  SelectionVector sel;
  ApplyScanKernel(k, c, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(ApplyScanKernelTest, StrCompareAllOperators) {
  StorageColumn c = MakeStrColumn({"apple", "", "banana", "cherry"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kStrCompare;
  k.col = 0;
  k.str = "banana";

  k.cmp = ScanKernel::Cmp::kEq;
  SelectionVector sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{2}));

  k.cmp = ScanKernel::Cmp::kNe;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));  // NULL never passes <>

  k.cmp = ScanKernel::Cmp::kLt;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0}));

  k.cmp = ScanKernel::Cmp::kLe;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2}));

  k.cmp = ScanKernel::Cmp::kGt;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{3}));

  k.cmp = ScanKernel::Cmp::kGe;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{2, 3}));
}

TEST(ApplyScanKernelTest, StrInAndLike) {
  StorageColumn c =
      MakeStrColumn({"ale", "", "amber ale", "lager", "stout", "a"});
  ScanKernel in;
  in.kind = ScanKernel::Kind::kStrIn;
  in.col = 0;
  in.strs = {"ale", "stout"};
  SelectionVector sel = Identity(6);
  ApplyScanKernel(in, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 4}));

  in.negated = true;
  sel = Identity(6);
  ApplyScanKernel(in, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{2, 3, 5}));

  ScanKernel like;
  like.kind = ScanKernel::Kind::kStrLike;
  like.col = 0;
  like.str = "a%";
  like.like_prefix = "a";
  like.prefix_only = true;
  sel = Identity(6);
  ApplyScanKernel(like, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2, 5}));

  // General pattern (not prefix-only): '%ale' suffix match.
  ScanKernel suffix;
  suffix.kind = ScanKernel::Kind::kStrLike;
  suffix.col = 0;
  suffix.str = "%ale";
  sel = Identity(6);
  ApplyScanKernel(suffix, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2}));

  suffix.negated = true;
  sel = Identity(6);
  ApplyScanKernel(suffix, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{3, 4, 5}));  // NULL never passes NOT LIKE
}

// ---- zone maps ------------------------------------------------------------

TEST(ZoneMapTest, BuildTracksPerBlockMinMaxAndNulls) {
  StorageColumn c(ColumnType::kInteger);
  // Block 0: rows 0..1023 hold value 100 + (r % 7), with NULL every 50th.
  // Block 1 (partial): rows 1024..1199 hold value 5000 + r.
  for (size_t r = 0; r < 1200; ++r) {
    if (r < 1024) {
      if (r % 50 == 0) {
        ASSERT_TRUE(c.AppendParsed("").ok());
      } else {
        ASSERT_TRUE(
            c.AppendParsed(std::to_string(100 + (r % 7))).ok());
      }
    } else {
      ASSERT_TRUE(c.AppendParsed(std::to_string(5000 + r)).ok());
    }
  }
  ZoneMap zm = BuildZoneMap(c, 1200);
  ASSERT_EQ(zm.blocks.size(), 2u);
  EXPECT_TRUE(zm.blocks[0].has_null);
  EXPECT_TRUE(zm.blocks[0].has_nonnull);
  EXPECT_EQ(zm.blocks[0].min, 100);
  EXPECT_EQ(zm.blocks[0].max, 106);
  EXPECT_FALSE(zm.blocks[1].has_null);
  EXPECT_EQ(zm.blocks[1].min, 6024);
  EXPECT_EQ(zm.blocks[1].max, 6199);
}

TEST(ZoneMapTest, AllNullBlockPrunesEverythingExceptIsNull) {
  StorageColumn c(ColumnType::kInteger);
  for (size_t r = 0; r < 10; ++r) ASSERT_TRUE(c.AppendParsed("").ok());
  ZoneMap zm = BuildZoneMap(c, 10);
  ASSERT_EQ(zm.blocks.size(), 1u);
  EXPECT_FALSE(zm.blocks[0].has_nonnull);

  ScanKernel range;
  range.kind = ScanKernel::Kind::kIntRange;
  range.lo = std::numeric_limits<int64_t>::min();
  range.hi = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(KernelPrunesBlock(range, zm.blocks[0]));

  ScanKernel isnull;
  isnull.kind = ScanKernel::Kind::kNullTest;
  EXPECT_FALSE(KernelPrunesBlock(isnull, zm.blocks[0]));
  isnull.negated = true;  // IS NOT NULL: nothing can pass
  EXPECT_TRUE(KernelPrunesBlock(isnull, zm.blocks[0]));
}

TEST(ZoneMapTest, RangeAndInPruning) {
  ZoneEntry zone;
  zone.min = 100;
  zone.max = 200;
  zone.has_nonnull = true;

  ScanKernel range;
  range.kind = ScanKernel::Kind::kIntRange;
  range.lo = 201;
  range.hi = 500;
  EXPECT_TRUE(KernelPrunesBlock(range, zone));
  range.lo = 200;  // touches the block max
  EXPECT_FALSE(KernelPrunesBlock(range, zone));
  range.lo = 0;
  range.hi = 99;
  EXPECT_TRUE(KernelPrunesBlock(range, zone));

  // Negated range prunes only when the whole block sits inside [lo, hi].
  range.negated = true;
  range.lo = 100;
  range.hi = 200;
  EXPECT_TRUE(KernelPrunesBlock(range, zone));
  range.lo = 101;
  EXPECT_FALSE(KernelPrunesBlock(range, zone));

  ScanKernel in;
  in.kind = ScanKernel::Kind::kIntIn;
  in.values = {10, 50, 99};
  EXPECT_TRUE(KernelPrunesBlock(in, zone));
  in.values = {10, 150};
  EXPECT_FALSE(KernelPrunesBlock(in, zone));
  in.values.clear();  // IN () matches nothing
  EXPECT_TRUE(KernelPrunesBlock(in, zone));

  EXPECT_TRUE(RangePrunesBlock(zone, 201, 1000));
  EXPECT_FALSE(RangePrunesBlock(zone, 150, 160));
}

// ---- Bloom filter ----------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegativesAndMostlyRejectsOthers) {
  BloomFilter bloom(1000);
  for (size_t i = 0; i < 1000; ++i) {
    bloom.Add(HashStorageValue(ColumnType::kIdentifier,
                               static_cast<int64_t>(i * 3)));
  }
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain(HashStorageValue(
        ColumnType::kIdentifier, static_cast<int64_t>(i * 3))));
  }
  size_t false_positives = 0;
  for (size_t i = 0; i < 10000; ++i) {
    if (bloom.MayContain(HashStorageValue(
            ColumnType::kIdentifier, static_cast<int64_t>(1000000 + i)))) {
      ++false_positives;
    }
  }
  // ~10 bits/key gives a low single-digit percent rate; 20% is generous.
  EXPECT_LT(false_positives, 2000u);
}

TEST(BloomFilterTest, HashMatchesValueHash) {
  // HashStorageValue must agree with Value::Hash so pushdown hashes of raw
  // storage match the join's Value-level hashes.
  EXPECT_EQ(HashStorageValue(ColumnType::kInteger, 42),
            Value::Int(42).Hash());
  EXPECT_EQ(HashStorageValue(ColumnType::kIdentifier, -7),
            Value::Int(-7).Hash());
  EXPECT_EQ(HashStorageValue(ColumnType::kDecimal, 12345),
            Value::Dec(Decimal::FromCents(12345)).Hash());
  EXPECT_EQ(HashStorageValue(ColumnType::kDate, 2450815),
            Value::Dt(Date(2450815)).Hash());
}

// ---- raw-storage key coercion ----------------------------------------------

TEST(StorageValueForEqualityTest, IntAndDecimalAndDateKeys) {
  int64_t raw = 0;
  EXPECT_EQ(StorageValueForEquality(ColumnType::kInteger, Value::Int(42),
                                    &raw),
            StorageEq::kExact);
  EXPECT_EQ(raw, 42);

  // Integer key against a decimal (cents) column scales by 100.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDecimal, Value::Int(42),
                                    &raw),
            StorageEq::kExact);
  EXPECT_EQ(raw, 4200);

  // Decimal key against an int column matches only when whole.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kInteger,
                                    Value::Dec(Decimal::FromCents(4200)),
                                    &raw),
            StorageEq::kExact);
  EXPECT_EQ(raw, 42);
  EXPECT_EQ(StorageValueForEquality(ColumnType::kInteger,
                                    Value::Dec(Decimal::FromCents(4250)),
                                    &raw),
            StorageEq::kNoMatch);

  // Date column against a parseable / unparseable string literal.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDate,
                                    Value::Str("1998-01-01"), &raw),
            StorageEq::kExact);
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDate, Value::Str("bogus"),
                                    &raw),
            StorageEq::kNoMatch);

  // Magnitudes beyond the double-exact window are refused, not guessed.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDecimal,
                                    Value::Int(int64_t{1} << 60), &raw),
            StorageEq::kUnsupported);
}

// ---- kernel compilation (planner classification) ---------------------------

/// Finds the first kScan node in a plan tree.
const PlanNode* FindScan(const PlanNode* n) {
  if (n == nullptr) return nullptr;
  if (n->kind == PlanKind::kScan) return n;
  for (const auto& c : n->children) {
    if (const PlanNode* s = FindScan(c.get())) return s;
  }
  return nullptr;
}

class KernelCompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                      {"n", ColumnType::kInteger},
                                      {"price", ColumnType::kDecimal},
                                      {"d", ColumnType::kDate},
                                      {"s", ColumnType::kVarchar}})
                    .ok());
    std::vector<std::string> row = {"1", "2", "3.50", "1998-01-01", "x"};
    ASSERT_TRUE(db_.FindTable("t")->AppendRowStrings(row).ok());
  }

  /// Plans `where` against t and returns (kernels, residual) of the scan.
  std::pair<size_t, size_t> Classify(const std::string& where) {
    Result<std::shared_ptr<SelectStmt>> stmt =
        ParseSql("SELECT k FROM t WHERE " + where);
    EXPECT_TRUE(stmt.ok()) << where;
    if (!stmt.ok()) return {0, 0};
    std::shared_ptr<const DataFacade> facade = db_.Snapshot();
    Result<PhysicalPlan> plan =
        BuildPlan(facade.get(), **stmt, db_.default_options());
    EXPECT_TRUE(plan.ok()) << where << ": " << plan.status().ToString();
    if (!plan.ok()) return {0, 0};
    const PlanNode* scan = FindScan(plan->root.get());
    EXPECT_NE(scan, nullptr) << where;
    if (scan == nullptr) return {0, 0};
    return {scan->kernels.size(), scan->residual_predicates.size()};
  }

  Database db_;
};

TEST_F(KernelCompileTest, SupportedShapesCompileToKernels) {
  EXPECT_EQ(Classify("n > 5"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("n BETWEEN 2 AND 9"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("price < 10.25"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("d >= '1998-01-01'"),
            (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("k IN (1, 2, 3)"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("s = 'x'"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("s LIKE 'ab%'"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("s IS NOT NULL"), (std::pair<size_t, size_t>{1, 0}));
  // String BETWEEN compiles to two compare kernels.
  EXPECT_EQ(Classify("s BETWEEN 'a' AND 'b'"),
            (std::pair<size_t, size_t>{2, 0}));
  // Two pushable conjuncts -> two kernels.
  EXPECT_EQ(Classify("n > 5 AND s = 'x'"),
            (std::pair<size_t, size_t>{2, 0}));
}

TEST_F(KernelCompileTest, UnsupportedShapesStayOnResidualPath) {
  // Column-vs-column comparison has no literal to compile against.
  EXPECT_EQ(Classify("n > k"), (std::pair<size_t, size_t>{0, 1}));
  // Arithmetic over the column defeats the raw-storage translation.
  EXPECT_EQ(Classify("n + 1 > 5"), (std::pair<size_t, size_t>{0, 1}));
  // Mixed kernel + residual conjunction splits.
  EXPECT_EQ(Classify("n > 5 AND n + 1 > 5"),
            (std::pair<size_t, size_t>{1, 1}));
}

// ---- kernels agree with the predicates they were compiled from -----------

/// Every compiled kernel must select exactly the rows on which its source
/// predicate, bound through expr_eval, is truthy. The table has NULLs in
/// every column and runs on owned storage (false) and, after a checkpoint
/// round trip, on mapped storage (true).
class KernelVsExpressionTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(owned_.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                         {"n", ColumnType::kInteger},
                                         {"price", ColumnType::kDecimal},
                                         {"d", ColumnType::kDate},
                                         {"s", ColumnType::kVarchar}})
                    .ok());
    EngineTable* t = owned_.FindTable("t");
    for (int i = 0; i < 3000; ++i) {
      std::vector<std::string> row = {
          i % 17 == 0 ? "" : std::to_string(i),
          i % 11 == 0 ? "" : std::to_string(i % 97),
          i % 7 == 0 ? "" : StringPrintf("%d.%02d", i % 40, i % 100),
          i % 5 == 0 ? "" : StringPrintf("1998-%02d-%02d", 1 + i % 12,
                                         1 + i % 28),
          i % 13 == 0 ? "" : StringPrintf("name-%d", i % 31)};
      ASSERT_TRUE(t->AppendRowStrings(row).ok());
    }
    db_ = &owned_;
    if (GetParam()) {
      dir_ = ::testing::TempDir() + "kernel_vs_expr_" +
             std::to_string(::getpid());
      std::filesystem::remove_all(dir_);
      ASSERT_TRUE(owned_.SaveCheckpoint(dir_).ok());
      Status st = mapped_.AttachCheckpoint(dir_);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_TRUE(mapped_.FindTable("t")->column(4).is_mapped());
      db_ = &mapped_;
    }
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  /// Plans `where` over t, requires every conjunct to compile to kernels,
  /// and compares the kernels' selection with row-wise Eval.
  void ExpectKernelsMatchEval(const std::string& where) {
    SCOPED_TRACE(where);
    Result<std::shared_ptr<SelectStmt>> stmt =
        ParseSql("SELECT k, n, price, d, s FROM t WHERE " + where);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    std::shared_ptr<const DataFacade> facade = db_->Snapshot();
    Result<PhysicalPlan> plan =
        BuildPlan(facade.get(), **stmt, db_->default_options());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanNode* scan = FindScan(plan->root.get());
    ASSERT_NE(scan, nullptr);
    ASSERT_FALSE(scan->kernels.empty());
    ASSERT_TRUE(scan->residual_predicates.empty());

    const EngineTable& table = *db_->FindTable("t");
    const size_t n = static_cast<size_t>(table.num_rows());
    SelectionVector sel = Identity(n);
    for (const ScanKernel& k : scan->kernels) {
      ApplyScanKernel(k, table.column(static_cast<size_t>(k.col)), &sel);
    }

    RowSet scope;
    scope.cols = scan->schema;
    std::vector<std::unique_ptr<BoundExpr>> preds;
    for (const Expr* e : scan->predicates) {
      Result<std::unique_ptr<BoundExpr>> b = BindExpr(*e, scope, nullptr);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      preds.push_back(std::move(*b));
    }
    SelectionVector expected;
    std::vector<Value> row;
    for (size_t r = 0; r < n; ++r) {
      row.clear();
      for (int c : scan->scan_cols) {
        row.push_back(table.GetValue(static_cast<int64_t>(r), c));
      }
      bool pass = true;
      for (const auto& p : preds) {
        Value v = p->Eval(row);
        pass = pass && !v.is_null() && v.IsTruthy();
      }
      if (pass) expected.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(sel, expected);
    EXPECT_FALSE(expected.empty());  // each shape selects something
    EXPECT_LT(expected.size(), n);   // and rejects something
  }

  Database owned_;
  Database mapped_;
  Database* db_ = nullptr;
  std::string dir_;
};

TEST_P(KernelVsExpressionTest, IntRangeInAndNullTests) {
  for (const char* where :
       {"n > 5", "n <= 40", "n = 42", "n <> 42", "n BETWEEN 2 AND 9",
        "n NOT BETWEEN 10 AND 60", "price < 10.25", "price >= 30.5",
        "d >= '1998-06-01'", "d BETWEEN '1998-03-01' AND '1998-04-15'",
        "k IN (1, 2, 3, 500, 2999)", "k NOT IN (1, 2, 3)",
        "n IS NULL", "n IS NOT NULL", "d IS NULL", "price IS NOT NULL"}) {
    ExpectKernelsMatchEval(where);
  }
}

TEST_P(KernelVsExpressionTest, StringCompareInAndLike) {
  for (const char* where :
       {"s = 'name-3'", "s <> 'name-3'", "s < 'name-2'", "s >= 'name-25'",
        "s BETWEEN 'name-1' AND 'name-2'", "s IN ('name-1', 'name-30')",
        "s NOT IN ('name-1', 'name-30')", "s LIKE 'name-1%'",
        "s LIKE '%-2_'", "s NOT LIKE 'name-1%'", "s IS NULL",
        "s IS NOT NULL", "n > 5 AND s = 'name-4'"}) {
    ExpectKernelsMatchEval(where);
  }
}

INSTANTIATE_TEST_SUITE_P(Backings, KernelVsExpressionTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Mapped" : "Owned";
                         });

// ---- end-to-end: columnar scans answer like plain C++ ----------------------

TEST(VectorizedScanTest, MatchesPlainCppCountsOnSyntheticTable) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                   {"n", ColumnType::kInteger},
                                   {"s", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db.FindTable("t");
  const int kRows = 5000;
  // Row i: k = i; n = i % 97 unless i % 11 == 0 (NULL); s = "name-<i % 31>"
  // unless i % 13 == 0 (NULL).
  auto n_null = [](int i) { return i % 11 == 0; };
  auto s_null = [](int i) { return i % 13 == 0; };
  for (int i = 0; i < kRows; ++i) {
    std::vector<std::string> row(3);
    row[0] = std::to_string(i);
    if (!n_null(i)) row[1] = std::to_string(i % 97);
    if (!s_null(i)) row[2] = StringPrintf("name-%d", i % 31);
    ASSERT_TRUE(t->AppendRowStrings(row).ok());
  }

  // The expected answers, computed directly from the generated rows.
  int64_t between_count = 0, between_sum = 0, not_between = 0, in_list = 0;
  int64_t like_count = 0, s_nulls = 0, ne_count = 0, ne_min = -1;
  std::map<std::string, int64_t> groups;
  for (int i = 0; i < kRows; ++i) {
    const int n = i % 97;
    const std::string s = StringPrintf("name-%d", i % 31);
    if (!n_null(i) && n >= 10 && n <= 60) {
      ++between_count;
      between_sum += n;
    }
    if (!n_null(i) && (n < 10 || n > 60)) ++not_between;
    if (i == 5 || i == 50 || i == 500 || i == 5000) ++in_list;
    if (!s_null(i) && s.compare(0, 6, "name-1") == 0) ++like_count;
    if (s_null(i)) ++s_nulls;
    if (!n_null(i) && n != 42) {
      ++ne_count;
      if (ne_min < 0) ne_min = i;
    }
    if (!n_null(i) && n > 50 && !s_null(i) && s > "name-2") ++groups[s];
  }
  ASSERT_GT(groups.size(), 1u);
  std::string groups_csv;
  for (const auto& [s, count] : groups) {
    groups_csv += s + "," + std::to_string(count) + "\n";
  }

  struct Case {
    const char* sql;
    std::vector<int64_t> ints;  // first-row values; empty = compare groups
  };
  const Case cases[] = {
      {"SELECT COUNT(*), SUM(n) FROM t WHERE n BETWEEN 10 AND 60",
       {between_count, between_sum}},
      {"SELECT COUNT(*) FROM t WHERE n NOT BETWEEN 10 AND 60", {not_between}},
      {"SELECT COUNT(*) FROM t WHERE k IN (5, 50, 500, 5000)", {in_list}},
      {"SELECT COUNT(*) FROM t WHERE s LIKE 'name-1%'", {like_count}},
      {"SELECT COUNT(*) FROM t WHERE s IS NULL", {s_nulls}},
      {"SELECT COUNT(*), MIN(k) FROM t WHERE n IS NOT NULL AND n <> 42",
       {ne_count, ne_min}},
      {"SELECT s, COUNT(*) FROM t WHERE n > 50 AND s > 'name-2' "
       "GROUP BY s ORDER BY s",
       {}},
  };
  for (const Case& c : cases) {
    for (int workers : {1, 4}) {
      SCOPED_TRACE(StringPrintf("%s at parallelism %d", c.sql, workers));
      PlannerOptions options = db.default_options();
      options.parallelism = workers;
      Result<QueryResult> r = db.Query(c.sql, options, nullptr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (c.ints.empty()) {
        std::string got;
        for (const auto& row : r->rows) {
          got += std::string(row[0].AsString()) + "," +
                 std::to_string(row[1].AsInt()) +
                 "\n";
        }
        EXPECT_EQ(got, groups_csv);
        continue;
      }
      ASSERT_EQ(r->rows.size(), 1u);
      ASSERT_EQ(r->rows[0].size(), c.ints.size());
      for (size_t i = 0; i < c.ints.size(); ++i) {
        EXPECT_EQ(r->rows[0][i].AsInt(), c.ints[i]) << "column " << i;
      }
    }
  }
}

TEST(VectorizedScanTest, ZoneMapsPruneAndStayCorrectAfterMutation) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable("t", {{"k", ColumnType::kIdentifier}}).ok());
  EngineTable* t = db.FindTable("t");
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i)}).ok());
  }
  const std::string sql = "SELECT COUNT(*) FROM t WHERE k >= 4000";
  ExecStats stats;
  Result<QueryResult> r = db.Query(sql, db.default_options(), &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 96);
  EXPECT_GT(stats.morsels_pruned, 0);  // first three 1024-row blocks skip

  // Mutation invalidates the zone maps; the rebuilt map must see new rows.
  ASSERT_TRUE(t->AppendRowStrings({"100000"}).ok());
  stats = ExecStats();
  r = db.Query(sql, db.default_options(), &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 97);
}

TEST(VectorizedScanTest, BytesTouchedChargesOnlyUnprunedMorsels) {
  Database db;
  ASSERT_TRUE(db.CreateTable("f", {{"k", ColumnType::kIdentifier},
                                   {"v", ColumnType::kInteger}})
                  .ok());
  EngineTable* t = db.FindTable("f");
  const int64_t kRows = 5000;  // four full morsels plus a 904-row tail
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings(
                     {std::to_string(i), std::to_string(i % 10)})
                    .ok());
  }
  // Both queries read only column k: every morsel charges its share of
  // k's payload, and a pruned morsel charges nothing.
  const int64_t k_payload =
      static_cast<int64_t>(t->column(0).PayloadByteSize());
  ASSERT_EQ(k_payload, kRows * 8);
  const std::string full_sql = "SELECT COUNT(*) FROM f WHERE k >= 0";
  const std::string pruned_sql =
      "SELECT COUNT(*) FROM f WHERE k BETWEEN 10 AND 90";
  for (int workers : {1, 4}) {
    PlannerOptions options = db.default_options();
    options.parallelism = workers;
    ExecStats full;
    ASSERT_TRUE(db.Query(full_sql, options, &full).ok());
    EXPECT_EQ(full.morsels_pruned, 0) << "parallelism " << workers;
    EXPECT_EQ(full.bytes_touched, k_payload) << "parallelism " << workers;

    ExecStats pruned;
    ASSERT_TRUE(db.Query(pruned_sql, options, &pruned).ok());
    EXPECT_EQ(pruned.morsels_pruned, 4) << "parallelism " << workers;
    EXPECT_EQ(pruned.bytes_touched,
              k_payload * static_cast<int64_t>(kBatchRows) / kRows)
        << "parallelism " << workers;
  }

  Result<std::string> explain = db.Explain(pruned_sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("bytes touched"), std::string::npos) << *explain;
}

/// The join-key pushdown gate: an inner hash join pushes its build keys
/// (range + Bloom filter) into the probe-side scan only when the probe
/// table holds at least eight rows per build key. Pinned on both sides of
/// the boundary; the join's own Bloom filter counts on the join, not the
/// scan.
TEST(JoinKeyPushdownTest, PushesOnlyAtEightProbeRowsPerBuildKey) {
  constexpr int kProbeRows = 800;
  Database db;
  ASSERT_TRUE(db.CreateTable("p", {{"pk", ColumnType::kIdentifier}}).ok());
  ASSERT_TRUE(db.CreateTable("b", {{"bk", ColumnType::kIdentifier}}).ok());
  EngineTable* probe = db.FindTable("p");
  for (int i = 0; i < kProbeRows; ++i) {
    ASSERT_TRUE(probe->AppendRowStrings({std::to_string(i)}).ok());
  }
  EngineTable* build = db.FindTable("b");
  // bk >= 0 keeps every build row and holds b on the hash-join path (an
  // unfiltered b would be index-joined, with no build side).
  const std::string sql = "SELECT COUNT(*) FROM p, b WHERE pk = bk AND bk >= 0";
  for (int keys : {kProbeRows / 8, kProbeRows / 8 + 1}) {
    while (build->num_rows() < keys) {
      ASSERT_TRUE(
          build->AppendRowStrings({std::to_string(build->num_rows())}).ok());
    }
    const bool pushed = keys * 8 <= kProbeRows;
    for (int workers : {1, 4}) {
      SCOPED_TRACE(StringPrintf("%d build keys at parallelism %d", keys,
                                workers));
      PlannerOptions options = db.default_options();
      options.parallelism = workers;
      ExecStats stats;
      Result<QueryResult> r = db.Query(sql, options, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->rows[0][0].AsInt(), keys);
      const ExecStats::OpStat* scan = nullptr;
      for (const ExecStats::OpStat& op : stats.operators) {
        if (op.label.rfind("scan p:", 0) == 0) scan = &op;
      }
      ASSERT_NE(scan, nullptr);
      if (pushed) {
        EXPECT_GT(scan->bloom_rejects, 0);
        EXPECT_EQ(scan->rows_out, keys);
      } else {
        EXPECT_EQ(scan->bloom_rejects, 0);
        EXPECT_EQ(scan->rows_out, kProbeRows);
      }
    }
  }
}

}  // namespace
}  // namespace tpcds
