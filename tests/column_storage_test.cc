// Tests for plain column storage, the engine's only column form: byte-exact
// round-trips through the accessors (NULLs, empty columns, integer extremes,
// typed date/decimal payloads), in-place mutation on owned columns,
// copy-on-write on columns mapped from a checkpoint (the checkpoint pages are
// never written), scan kernels reading mapped storage, and checkpoint
// persistence (deep load materialises owned columns, attach maps every
// section zero-copy, corruption fails cleanly, re-saving is byte-identical).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/audit.h"
#include "engine/batch.h"
#include "engine/database.h"
#include "engine/table.h"
#include "util/bytes.h"
#include "util/string_util.h"
#include "util/wal.h"

namespace tpcds {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

StorageColumn MakeColumn(const std::vector<std::string>& fields,
                         ColumnType type) {
  StorageColumn c(type);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

SelectionVector Identity(size_t n) {
  SelectionVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

/// Every logical observation of `got` must equal `want`: size, null mask,
/// and per-row Value (which exercises Str/Num through the accessors).
void ExpectSameContent(const StorageColumn& got, const StorageColumn& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got.IsNull(r), want.IsNull(r)) << "row " << r;
    EXPECT_EQ(Value::Compare(got.Get(r), want.Get(r)), 0) << "row " << r;
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t GetLeU64(const std::string& bytes, size_t pos) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

/// A scratch directory unique to this process (ctest runs the cases of one
/// suite side by side), removed up front.
std::string ScratchDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + name + "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

// ---- owned columns ---------------------------------------------------------

TEST(StorageColumnTest, StringRoundTripWithNullsPreservesContent) {
  const char* channels[] = {"web", "store", "catalog"};
  StorageColumn col(ColumnType::kVarchar);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(col.AppendParsed(i % 7 == 0 ? "" : channels[i % 3]).ok());
  }
  ASSERT_EQ(col.size(), 300u);
  EXPECT_TRUE(col.nums().empty());
  ASSERT_EQ(col.nulls().size(), 300u);
  for (size_t r = 0; r < 300; ++r) {
    if (r % 7 == 0) {
      EXPECT_TRUE(col.IsNull(r)) << "row " << r;
      EXPECT_TRUE(col.Get(r).is_null()) << "row " << r;
      EXPECT_EQ(col.Str(r), "") << "row " << r;
    } else {
      EXPECT_FALSE(col.IsNull(r)) << "row " << r;
      EXPECT_EQ(col.Str(r), channels[r % 3]) << "row " << r;
      EXPECT_EQ(col.Get(r).AsString(), channels[r % 3]) << "row " << r;
    }
  }
}

TEST(StorageColumnTest, IntegerExtremesAndNegativesRoundTrip) {
  const std::vector<int64_t> values = {kMin, -1'000'000'000'000, -1, 0,
                                       1,    4'294'967'296,      kMax};
  StorageColumn col(ColumnType::kIdentifier);
  for (int64_t v : values) ASSERT_TRUE(col.AppendValue(Value::Int(v)).ok());
  ASSERT_TRUE(col.AppendValue(Value::Null()).ok());
  ASSERT_TRUE(col.AppendParsed("-42").ok());
  ASSERT_EQ(col.size(), values.size() + 2);
  for (size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(col.Num(r), values[r]) << "row " << r;
    EXPECT_EQ(col.nums()[r], values[r]) << "row " << r;
    EXPECT_EQ(col.Get(r).AsInt(), values[r]) << "row " << r;
  }
  EXPECT_TRUE(col.IsNull(values.size()));
  EXPECT_EQ(col.Num(values.size()), 0);  // NULL payload is normalised
  EXPECT_EQ(col.Num(values.size() + 1), -42);
}

TEST(StorageColumnTest, DateAndDecimalFieldsStoreTypedPayloads) {
  StorageColumn dates = MakeColumn({"1998-01-02", "", "2003-12-31"},
                                   ColumnType::kDate);
  Result<Date> d0 = Date::Parse("1998-01-02");
  Result<Date> d2 = Date::Parse("2003-12-31");
  ASSERT_TRUE(d0.ok() && d2.ok());
  EXPECT_EQ(dates.Num(0), d0->jdn());
  EXPECT_EQ(dates.Num(2), d2->jdn());
  EXPECT_TRUE(dates.IsNull(1));
  EXPECT_EQ(dates.Get(0).kind(), Value::Kind::kDate);
  EXPECT_EQ(dates.Get(2).AsDate().jdn(), d2->jdn());

  StorageColumn prices = MakeColumn({"12.34", "-0.05", "", "100"},
                                    ColumnType::kDecimal);
  EXPECT_EQ(prices.Num(0), 1234);  // cents
  EXPECT_EQ(prices.Num(1), -5);
  EXPECT_TRUE(prices.IsNull(2));
  EXPECT_EQ(prices.Num(3), 10000);
  EXPECT_EQ(prices.Get(0).kind(), Value::Kind::kDecimal);
  EXPECT_EQ(prices.Get(0).AsDecimal().cents(), 1234);
}

TEST(StorageColumnTest, EmptyColumnsHaveNoRowsAndOnlyTheOffsetSentinel) {
  StorageColumn num(ColumnType::kInteger);
  StorageColumn str(ColumnType::kVarchar);
  EXPECT_EQ(num.size(), 0u);
  EXPECT_EQ(str.size(), 0u);
  EXPECT_TRUE(num.nums().empty());
  EXPECT_TRUE(num.nulls().empty());
  EXPECT_TRUE(str.nulls().empty());
  EXPECT_FALSE(num.is_mapped());
  EXPECT_EQ(num.PayloadByteSize(), 0u);
  // A string column's offsets array always carries rows + 1 entries.
  EXPECT_EQ(str.PayloadByteSize(), sizeof(uint64_t));
}

TEST(StorageColumnTest, PayloadBytesCountNumbersOrOffsetsPlusArena) {
  StorageColumn num = MakeColumn({"1", "", "3", "4"}, ColumnType::kInteger);
  EXPECT_EQ(num.PayloadByteSize(), 4 * sizeof(int64_t));  // NULLs included

  StorageColumn str = MakeColumn({"ab", "", "cde"}, ColumnType::kVarchar);
  EXPECT_EQ(str.PayloadByteSize(), 4 * sizeof(uint64_t) + 5);
}

TEST(StorageColumnTest, SetReplacesValuesAndNullNormalisesThePayload) {
  StorageColumn num = MakeColumn({"7", "8", "9"}, ColumnType::kInteger);
  num.Set(1, Value::Int(-80));
  num.Set(2, Value::Null());
  EXPECT_EQ(num.Num(0), 7);
  EXPECT_EQ(num.Num(1), -80);
  EXPECT_TRUE(num.IsNull(2));
  EXPECT_EQ(num.Num(2), 0);
  num.Set(2, Value::Int(90));
  EXPECT_FALSE(num.IsNull(2));
  EXPECT_EQ(num.Num(2), 90);

  StorageColumn str = MakeColumn({"on", "off"}, ColumnType::kVarchar);
  str.Set(0, Value::Str("maybe"));
  str.Set(1, Value::Null());
  EXPECT_EQ(str.Str(0), "maybe");
  EXPECT_TRUE(str.IsNull(1));
  EXPECT_EQ(str.Str(1), "");
}

TEST(StorageColumnTest, RetainAndTruncateKeepTheRightRows) {
  StorageColumn num =
      MakeColumn({"10", "", "30", "40", "50"}, ColumnType::kInteger);
  StorageColumn str =
      MakeColumn({"a", "b", "", "d", "e"}, ColumnType::kVarchar);
  num.Retain({1, 2, 4});
  str.Retain({1, 2, 4});
  ExpectSameContent(num, MakeColumn({"", "30", "50"}, ColumnType::kInteger));
  ExpectSameContent(str, MakeColumn({"b", "", "e"}, ColumnType::kVarchar));

  num.Truncate(1);
  str.Truncate(2);
  ExpectSameContent(num, MakeColumn({""}, ColumnType::kInteger));
  ExpectSameContent(str, MakeColumn({"b", ""}, ColumnType::kVarchar));
  EXPECT_EQ(num.nulls().size(), 1u);
  EXPECT_EQ(str.nulls().size(), 2u);
}

TEST(StorageColumnTest, RejectedFieldAppendsNothing) {
  StorageColumn col(ColumnType::kInteger);
  ASSERT_TRUE(col.AppendParsed("5").ok());
  Status bad = col.AppendParsed("abc");
  EXPECT_EQ(bad.code(), StatusCode::kParseError) << bad.ToString();
  ASSERT_TRUE(col.AppendParsed("").ok());
  ASSERT_EQ(col.size(), 2u);
  ASSERT_EQ(col.nulls().size(), 2u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_EQ(col.Num(0), 5);
  EXPECT_TRUE(col.IsNull(1));

  // A string that is not a date, appended as a typed value.
  StorageColumn date(ColumnType::kDate);
  EXPECT_FALSE(date.AppendValue(Value::Str("not a date")).ok());
  ASSERT_TRUE(date.AppendValue(Value::Null()).ok());
  EXPECT_EQ(date.size(), 1u);
  EXPECT_EQ(date.nulls().size(), 1u);
  EXPECT_TRUE(date.IsNull(0));
}

TEST(EngineTableAppendTest, FailedRowLeavesEveryColumnAtNumRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                   {"d", ColumnType::kDate},
                                   {"s", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db.FindTable("t");
  ASSERT_TRUE(t->AppendRowStrings({"1", "1998-01-01", "one"}).ok());
  EXPECT_FALSE(t->AppendRowStrings({"2", "not-a-date", "two"}).ok());
  EXPECT_FALSE(
      t->AppendRowValues({Value::Int(3), Value::Str("bad"), Value::Str("x")})
          .ok());
  ASSERT_EQ(t->num_rows(), 1);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(t->column(c).size(), 1u) << "column " << c;
    EXPECT_EQ(t->column(c).nulls().size(), 1u) << "column " << c;
  }

  ASSERT_TRUE(t->AppendRowStrings({"4", "", "four"}).ok());
  ASSERT_EQ(t->num_rows(), 2);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(t->column(c).size(), 2u) << "column " << c;
  }
  EXPECT_EQ(t->GetValue(1, 0).AsInt(), 4);
  EXPECT_TRUE(t->GetValue(1, 1).is_null());
  EXPECT_EQ(t->GetValue(1, 2).AsString(), "four");
  EXPECT_EQ(t->GetValue(0, 0).AsInt(), 1);
  EXPECT_EQ(t->GetValue(0, 1).AsDate().jdn(),
            Date::Parse("1998-01-01")->jdn());
  EXPECT_EQ(t->GetValue(0, 2).AsString(), "one");
}

// ---- mapped columns --------------------------------------------------------

/// Table "t" (identifier, char, date, decimal, varchar with NULLs in every
/// column) built on the heap, checkpointed, and attached. The heap copy is
/// the oracle for every mapped-column observation.
class MappedColumnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ScratchDir("mapped_column_ckpt");
    Build(&heap_);
    ASSERT_TRUE(heap_.SaveCheckpoint(dir_).ok());
    table_file_ = ReadBytes(dir_ + "/t.col");
    ASSERT_FALSE(table_file_.empty());
    Status st = attached_.AttachCheckpoint(dir_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void TearDown() override { fs::remove_all(dir_); }

  static void Build(Database* db) {
    ASSERT_TRUE(db->CreateTable("t", {{"k", ColumnType::kIdentifier},
                                      {"flag", ColumnType::kChar},
                                      {"d", ColumnType::kDate},
                                      {"price", ColumnType::kDecimal},
                                      {"name", ColumnType::kVarchar}})
                    .ok());
    EngineTable* t = db->FindTable("t");
    for (int i = 0; i < 500; ++i) {
      std::vector<std::string> row = {
          std::to_string(1000 + i), i % 2 == 0 ? "Y" : "N",
          StringPrintf("1998-02-%02d", 1 + i / 100),
          StringPrintf("%d.%02d", i, i % 100), "name" + std::to_string(i % 37)};
      if (i % 11 == 0) row[i % 5] = "";  // NULL, rotating over the columns
      ASSERT_TRUE(t->AppendRowStrings(row).ok());
    }
  }

  const EngineTable& mapped() { return *attached_.FindTable("t"); }
  const EngineTable& heap() { return *heap_.FindTable("t"); }

  /// The checkpoint's table file must never change under its mappings.
  void ExpectTableFileUntouched() {
    EXPECT_EQ(ReadBytes(dir_ + "/t.col"), table_file_);
  }

  std::string dir_;
  std::string table_file_;
  Database heap_;
  Database attached_;
};

TEST_F(MappedColumnTest, AttachedColumnsAreMappedAndMatchTheSource) {
  ASSERT_EQ(mapped().num_rows(), heap().num_rows());
  for (size_t c = 0; c < heap().num_columns(); ++c) {
    const StorageColumn& col = mapped().column(c);
    EXPECT_TRUE(col.is_mapped()) << "column " << c;
    EXPECT_FALSE(heap().column(c).is_mapped()) << "column " << c;
    EXPECT_EQ(col.PayloadByteSize(), heap().column(c).PayloadByteSize())
        << "column " << c;
    ExpectSameContent(col, heap().column(c));
  }
  EXPECT_EQ(HashTableContent(mapped()), HashTableContent(heap()));
}

TEST_F(MappedColumnTest, AppendToMappedColumnCopiesOnWrite) {
  StorageColumn col = mapped().column(0);  // shares the mapping
  ASSERT_TRUE(col.is_mapped());
  ASSERT_TRUE(col.AppendValue(Value::Int(9)).ok());
  EXPECT_FALSE(col.is_mapped());
  ASSERT_EQ(col.size(), 501u);
  EXPECT_EQ(col.Num(500), 9);
  col.Truncate(500);
  ExpectSameContent(col, heap().column(0));
  // The table's own column still reads the mapping.
  EXPECT_TRUE(mapped().column(0).is_mapped());
  ExpectTableFileUntouched();
}

TEST_F(MappedColumnTest, SetOnMappedStringColumnCopiesOnWrite) {
  StorageColumn col = mapped().column(4);
  ASSERT_TRUE(col.is_mapped());
  col.Set(3, Value::Str("renamed"));
  EXPECT_FALSE(col.is_mapped());
  EXPECT_EQ(col.Str(3), "renamed");
  for (size_t r = 0; r < col.size(); ++r) {
    if (r == 3) continue;
    EXPECT_EQ(col.Str(r), heap().column(4).Str(r)) << "row " << r;
    EXPECT_EQ(col.IsNull(r), heap().column(4).IsNull(r)) << "row " << r;
  }
  EXPECT_EQ(mapped().column(4).Str(3), heap().column(4).Str(3));
  ExpectTableFileUntouched();
}

TEST_F(MappedColumnTest, RetainAndTruncateOnMappedColumnsCopyOnWrite) {
  const std::vector<int64_t> keep = {0, 11, 12, 250, 499};
  for (size_t c = 0; c < heap().num_columns(); ++c) {
    StorageColumn got = mapped().column(c);
    StorageColumn want = heap().column(c);
    got.Retain(keep);
    want.Retain(keep);
    EXPECT_FALSE(got.is_mapped()) << "column " << c;
    ExpectSameContent(got, want);

    StorageColumn cut = mapped().column(c);
    cut.Truncate(100);
    EXPECT_FALSE(cut.is_mapped()) << "column " << c;
    ASSERT_EQ(cut.size(), 100u);
    for (size_t r = 0; r < 100; ++r) {
      EXPECT_EQ(Value::Compare(cut.Get(r), heap().column(c).Get(r)), 0)
          << "column " << c << " row " << r;
    }
  }
  ExpectTableFileUntouched();
}

/// The content hash is an oracle independent of the backing: an attached
/// table and a heap table that see the same mutations must agree.
TEST_F(MappedColumnTest, MutatingAttachedTableMatchesTheHeapTable) {
  auto mutate = [](Database* db) {
    EngineTable* t = db->FindTable("t");
    t->SetValue(10, 1, Value::Str("X"));
    t->SetValue(499, 0, Value::Int(99));
    t->SetValue(7, 4, Value::Null());
    ASSERT_TRUE(
        t->AppendRowStrings({"2000", "Y", "1998-03-01", "1.50", "new"}).ok());
    EXPECT_EQ(t->DeleteRows({0, 5, 250}), 3);
  };
  mutate(&heap_);
  mutate(&attached_);
  EXPECT_EQ(mapped().num_rows(), 498);
  EXPECT_EQ(HashTableContent(mapped()), HashTableContent(heap()));
  ExpectTableFileUntouched();

  // The untouched checkpoint still attaches to the original content.
  Database again;
  ASSERT_TRUE(again.AttachCheckpoint(dir_).ok());
  Database original;
  Build(&original);
  EXPECT_EQ(HashTableContent(*again.FindTable("t")),
            HashTableContent(*original.FindTable("t")));
}

TEST_F(MappedColumnTest, CloneOfAttachedTableStaysMappedUntilMutated) {
  std::unique_ptr<EngineTable> clone = mapped().Clone();
  for (size_t c = 0; c < clone->num_columns(); ++c) {
    EXPECT_TRUE(clone->column(c).is_mapped()) << "column " << c;
  }
  clone->SetValue(0, 2, Value::Null());
  EXPECT_FALSE(clone->column(2).is_mapped());
  EXPECT_TRUE(clone->column(0).is_mapped());
  EXPECT_TRUE(clone->GetValue(0, 2).is_null());
  // The original keeps its mapped, unmodified view.
  EXPECT_TRUE(mapped().column(2).is_mapped());
  EXPECT_EQ(Value::Compare(mapped().GetValue(0, 2), heap().GetValue(0, 2)),
            0);
  ExpectTableFileUntouched();
}

TEST_F(MappedColumnTest, ScanKernelsAgreeOnMappedAndOwnedColumns) {
  auto expect_agreement = [&](const ScanKernel& k, const std::string& what) {
    const StorageColumn& owned = heap().column(static_cast<size_t>(k.col));
    const StorageColumn& view = mapped().column(static_cast<size_t>(k.col));
    ASSERT_TRUE(view.is_mapped());
    SelectionVector want = Identity(owned.size());
    ApplyScanKernel(k, owned, &want);
    SelectionVector got = Identity(view.size());
    ApplyScanKernel(k, view, &got);
    EXPECT_EQ(got, want) << what;
  };

  struct Range {
    int64_t lo, hi;
  };
  // Interior, saturating and empty bounds over the identifier column.
  const Range ranges[] = {{1100, 1200}, {kMin, kMax}, {kMin, 999},
                          {1400, kMax}, {5, 3}};
  for (const Range& r : ranges) {
    for (bool negated : {false, true}) {
      ScanKernel k;
      k.kind = ScanKernel::Kind::kIntRange;
      k.col = 0;
      k.lo = r.lo;
      k.hi = r.hi;
      k.negated = negated;
      expect_agreement(k, StringPrintf("range [%lld, %lld] negated=%d",
                                       static_cast<long long>(r.lo),
                                       static_cast<long long>(r.hi), negated));
    }
  }
  for (bool negated : {false, true}) {
    ScanKernel in;
    in.kind = ScanKernel::Kind::kIntIn;
    in.col = 0;
    in.values = {1000, 1011, 1257, 9999};
    in.negated = negated;
    expect_agreement(in, negated ? "NOT IN" : "IN");

    ScanKernel str_in;
    str_in.kind = ScanKernel::Kind::kStrIn;
    str_in.col = 4;
    str_in.strs = {"absent", "name12", "name3"};
    str_in.negated = negated;
    expect_agreement(str_in, negated ? "string NOT IN" : "string IN");

    ScanKernel like;
    like.kind = ScanKernel::Kind::kStrLike;
    like.col = 4;
    like.str = "name1%";
    like.like_prefix = "name1";
    like.prefix_only = true;
    like.negated = negated;
    expect_agreement(like, negated ? "NOT LIKE" : "LIKE");

    ScanKernel null_test;
    null_test.kind = ScanKernel::Kind::kNullTest;
    null_test.col = 2;
    null_test.negated = negated;
    expect_agreement(null_test, negated ? "IS NOT NULL" : "IS NULL");
  }
  const ScanKernel::Cmp cmps[] = {ScanKernel::Cmp::kEq, ScanKernel::Cmp::kNe,
                                  ScanKernel::Cmp::kLt, ScanKernel::Cmp::kLe,
                                  ScanKernel::Cmp::kGt, ScanKernel::Cmp::kGe};
  for (ScanKernel::Cmp cmp : cmps) {
    ScanKernel k;
    k.kind = ScanKernel::Kind::kStrCompare;
    k.col = 1;
    k.cmp = cmp;
    k.str = "N";
    expect_agreement(k, StringPrintf("cmp %d", static_cast<int>(cmp)));
  }
}

// ---- checkpoint persistence ------------------------------------------------

// Checkpoint v2 table file: a 24-byte header, then one 62-byte directory
// entry per column (u8 type, u8 encoding, u64 nulls_off @2, u64 data_off
// @10, u64 aux_off @18, u64 arena_off @26, u64 arena_len @34, ...).
constexpr size_t kTableHeaderBytes = 24;
constexpr size_t kDirEntryBytes = 62;

class PlainCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ScratchDir("plain_ckpt");
    ASSERT_TRUE(source_.CreateTable("s", {{"sk", ColumnType::kIdentifier},
                                          {"channel", ColumnType::kChar},
                                          {"sold", ColumnType::kDate},
                                          {"price", ColumnType::kDecimal}})
                    .ok());
    EngineTable* t = source_.FindTable("s");
    const char* channels[] = {"web", "store", "catalog"};
    for (int i = 0; i < 1200; ++i) {
      std::vector<std::string> row = {
          std::to_string(500'000 + i), channels[i % 3],
          StringPrintf("1999-01-%02d", 1 + i / 200), "12.34"};
      if (i % 37 == 0) row[1] = "";  // NULL channel
      if (i % 53 == 0) row[2] = "";  // NULL date
      ASSERT_TRUE(t->AppendRowStrings(row).ok());
    }
    hash_ = HashTableContent(*t);
    ASSERT_TRUE(source_.SaveCheckpoint(dir_).ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  Database source_;
  std::string dir_;
  uint64_t hash_ = 0;
};

TEST_F(PlainCheckpointTest, DeepLoadMaterialisesOwnedColumnsAndVerifies) {
  Database loaded;
  Status st = loaded.LoadCheckpoint(dir_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const EngineTable* t = loaded.FindTable("s");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 1200);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    EXPECT_FALSE(t->column(c).is_mapped()) << "column " << c;
    ExpectSameContent(t->column(c), source_.FindTable("s")->column(c));
  }
  EXPECT_EQ(HashTableContent(*t), hash_);
  EXPECT_EQ(loaded.Snapshot()->MappedColumnCount(), 0u);
}

TEST_F(PlainCheckpointTest, AttachMapsEverySectionAndAnswersQueries) {
  Database attached;
  Status st = attached.AttachCheckpoint(dir_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const EngineTable* t = attached.FindTable("s");
  ASSERT_NE(t, nullptr);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    EXPECT_TRUE(t->column(c).is_mapped()) << "column " << c;
  }
  EXPECT_EQ(attached.Snapshot()->MappedColumnCount(), t->num_columns());
  EXPECT_EQ(HashTableContent(*t), hash_);

  const std::string sql =
      "SELECT channel, COUNT(*), MIN(sk), SUM(price) FROM s "
      "WHERE sold >= '1999-01-03' AND channel <> 'store' "
      "GROUP BY channel ORDER BY channel";
  Result<QueryResult> want = source_.Query(sql);
  Result<QueryResult> got = attached.Query(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->ToCsv(), want->ToCsv());
  EXPECT_EQ(got->rows.size(), 2u);  // catalog and web
}

TEST_F(PlainCheckpointTest, CorruptSectionFailsDeepLoadCleanly) {
  // Flip one byte inside the last payload section: deep load must report
  // kDataLoss and leave the database empty, not crash or load junk.
  const std::string path = dir_ + "/s.col";
  std::string bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 4096u);
  bytes[bytes.size() - 17] ^= 0x40;
  WriteBytes(path, bytes);
  Database loaded;
  Status st = loaded.LoadCheckpoint(dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_TRUE(loaded.TableNames().empty());
}

TEST_F(PlainCheckpointTest, CorruptDirectoryFailsAttachCleanly) {
  // Attach trusts payload bytes but verifies the directory CRC: a flipped
  // section offset must be rejected before any column points at it.
  const std::string path = dir_ + "/s.col";
  std::string bytes = ReadBytes(path);
  bytes[kTableHeaderBytes + 2 * kDirEntryBytes + 10] ^= 0x01;  // data_off
  WriteBytes(path, bytes);
  Database attached;
  Status st = attached.AttachCheckpoint(dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_TRUE(attached.TableNames().empty());
}

TEST_F(PlainCheckpointTest, SectionsAreAlignedAndArenasHoldTheStringBytes) {
  const std::string bytes = ReadBytes(dir_ + "/s.col");
  const EngineTable& t = *source_.FindTable("s");
  ASSERT_GE(bytes.size(), kTableHeaderBytes + 4 * kDirEntryBytes);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const size_t entry = kTableHeaderBytes + c * kDirEntryBytes;
    const uint64_t nulls_off = GetLeU64(bytes, entry + 2);
    const uint64_t data_off = GetLeU64(bytes, entry + 10);
    const uint64_t arena_off = GetLeU64(bytes, entry + 26);
    const uint64_t arena_len = GetLeU64(bytes, entry + 34);
    EXPECT_EQ(bytes[entry + 1], 0) << "column " << c << " is not plain";
    EXPECT_EQ(nulls_off % 64, 0u) << "column " << c;
    EXPECT_EQ(data_off % 64, 0u) << "column " << c;
    ASSERT_LE(nulls_off + 1200, bytes.size());
    for (size_t r = 0; r < 1200; ++r) {
      ASSERT_EQ(bytes[nulls_off + r] != 0, t.column(c).IsNull(r))
          << "column " << c << " row " << r;
    }
    if (t.column(c).is_string()) {
      EXPECT_EQ(arena_off % 64, 0u) << "column " << c;
      uint64_t total = 0;
      for (size_t r = 0; r < 1200; ++r) total += t.column(c).Str(r).size();
      EXPECT_EQ(arena_len, total) << "column " << c;
      ASSERT_LE(arena_off + arena_len, bytes.size());
      // Row 0 is NULL (an empty string), so the arena opens with row 1.
      EXPECT_EQ(bytes.compare(arena_off, 5, "store"), 0) << "column " << c;
    } else {
      EXPECT_EQ(arena_off, 0u) << "column " << c;
      EXPECT_EQ(arena_len, 0u) << "column " << c;
      EXPECT_EQ(static_cast<int64_t>(GetLeU64(bytes, data_off)),
                t.column(c).Num(0))
          << "column " << c;
    }
  }
}

TEST_F(PlainCheckpointTest, SavingAnAttachedDatabaseIsByteIdentical) {
  Database attached;
  ASSERT_TRUE(attached.AttachCheckpoint(dir_).ok());
  const std::string again = ScratchDir("plain_ckpt_resaved");
  Status st = attached.SaveCheckpoint(again);
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    names.insert(entry.path().filename().string());
  }
  std::set<std::string> names_again;
  for (const auto& entry : fs::directory_iterator(again)) {
    names_again.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names_again, names);
  for (const std::string& name : names) {
    EXPECT_EQ(ReadBytes(again + "/" + name), ReadBytes(dir_ + "/" + name))
        << name;
  }
  fs::remove_all(again);
}

TEST_F(PlainCheckpointTest, StaleStatsSidecarIsIgnoredOnBothPaths) {
  // Older builds also saved a STATS file of per-table optimizer statistics
  // beside the tables. Its layout: magic, table count, then per table its
  // name, row and column counts and, per column, row/null/NDV counts, a
  // flags byte, min, max and a histogram (here empty); a CRC-32 of the
  // body closes the file.
  std::string body;
  PutU32(&body, 1);
  PutLenString(&body, "s");
  PutU64(&body, 1200);
  PutU32(&body, 4);
  for (int c = 0; c < 4; ++c) {
    for (int field = 0; field < 3; ++field) PutU64(&body, 1200);
    body.push_back(0);
    PutU64(&body, 0);
    PutU64(&body, 0);
    PutU32(&body, 0);
    PutU64(&body, 0);
  }
  std::string stats = "TPCDSST1" + body;
  PutU32(&stats, Crc32(body.data(), body.size()));
  std::string corrupt = stats;
  corrupt[12] ^= 0x5a;  // the CRC no longer matches

  const std::string sql =
      "SELECT channel, COUNT(*), MIN(sk), SUM(price) FROM s "
      "WHERE sold >= '1999-01-03' GROUP BY channel ORDER BY channel";
  Result<QueryResult> want = source_.Query(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const std::string& sidecar : {stats, corrupt}) {
    WriteBytes(dir_ + "/STATS", sidecar);
    for (bool attach : {false, true}) {
      SCOPED_TRACE(StringPrintf("%s sidecar, %s",
                                sidecar == stats ? "intact" : "corrupt",
                                attach ? "attach" : "deep load"));
      Database db;
      Status st = attach ? db.AttachCheckpoint(dir_) : db.LoadCheckpoint(dir_);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(HashTableContent(*db.FindTable("s")), hash_);
      Result<QueryResult> got = db.Query(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->ToCsv(), want->ToCsv());
    }
  }
}

TEST(PlainCheckpointEdgeTest, EmptyAndAllNullTablesRoundTripOnBothPaths) {
  Database source;
  ASSERT_TRUE(source.CreateTable("empty", {{"k", ColumnType::kIdentifier},
                                           {"s", ColumnType::kVarchar}})
                  .ok());
  ASSERT_TRUE(source.CreateTable("nulls", {{"k", ColumnType::kIdentifier},
                                           {"d", ColumnType::kDate},
                                           {"s", ColumnType::kVarchar}})
                  .ok());
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(
        source.FindTable("nulls")->AppendRowStrings({"", "", ""}).ok());
  }
  const std::string dir = ScratchDir("edge_ckpt");
  ASSERT_TRUE(source.SaveCheckpoint(dir).ok());

  Database loaded;
  Status st = loaded.LoadCheckpoint(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  Database attached;
  st = attached.AttachCheckpoint(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (const Database* db : {&loaded, &attached}) {
    const EngineTable* empty = db->FindTable("empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->num_rows(), 0);
    EXPECT_EQ(empty->column(1).size(), 0u);
    EXPECT_EQ(empty->column(1).PayloadByteSize(), sizeof(uint64_t));
    const EngineTable* nulls = db->FindTable("nulls");
    ASSERT_NE(nulls, nullptr);
    ASSERT_EQ(nulls->num_rows(), 70);
    for (size_t c = 0; c < 3; ++c) {
      for (size_t r = 0; r < 70; ++r) {
        ASSERT_TRUE(nulls->column(c).IsNull(r)) << "column " << c;
      }
    }
    EXPECT_EQ(HashDatabaseContent(*db), HashDatabaseContent(source));
  }
  Result<QueryResult> count =
      attached.Query("SELECT COUNT(*), COUNT(d) FROM nulls");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt(), 70);
  EXPECT_EQ(count->rows[0][1].AsInt(), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tpcds
