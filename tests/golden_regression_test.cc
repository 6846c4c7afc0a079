// Golden regression test: with the default master seed at SF 0.002, the
// whole stack (scaling -> generation -> load -> SQL execution) must keep
// producing byte-identical results. Any change to RNG streams, draw
// budgets, distributions, pricing, the loader or the executor that alters
// generated data or query semantics trips this test — intentionally. If a
// change is deliberate, regenerate the constants below (they are printed
// by the failing assertions).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "qgen/qgen.h"
#include "templates/templates.h"

namespace tpcds {
namespace {

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;  // default seed 19620718
    ASSERT_TRUE(db_->LoadTpcdsData(options).ok());
  }

  static Database* db_;
};

Database* GoldenTest::db_ = nullptr;

TEST_F(GoldenTest, StoreSalesTotals) {
  Result<QueryResult> r = db_->Query(
      "SELECT COUNT(*), SUM(ss_quantity), SUM(ss_ext_sales_price) "
      "FROM store_sales");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5655);
  EXPECT_EQ(r->rows[0][1].AsInt(), 283585);
  EXPECT_EQ(r->rows[0][2].AsDecimal().ToString(), "10618231.98");
}

TEST_F(GoldenTest, CatalogSalesProfit) {
  Result<QueryResult> r = db_->Query(
      "SELECT COUNT(*), SUM(cs_net_profit) FROM catalog_sales");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 2743);
  EXPECT_EQ(r->rows[0][1].AsDecimal().ToString(), "-2066405.79");
}

TEST_F(GoldenTest, WebReturnsLoss) {
  Result<QueryResult> r = db_->Query(
      "SELECT COUNT(*), SUM(wr_net_loss) FROM web_returns");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 129);
  EXPECT_EQ(r->rows[0][1].AsDecimal().ToString(), "43747.77");
}

TEST_F(GoldenTest, DistinctTickets) {
  Result<QueryResult> r = db_->Query(
      "SELECT COUNT(DISTINCT ss_ticket_number) FROM store_sales");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 549);  // = ChannelNumUnits at SF 0.002
}

TEST_F(GoldenTest, ItemCategoryBreakdown) {
  Result<QueryResult> r = db_->Query(
      "SELECT i_category, COUNT(*) FROM item GROUP BY i_category "
      "ORDER BY i_category LIMIT 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsString(), "Books");
  EXPECT_EQ(r->rows[0][1].AsInt(), 3);
  EXPECT_EQ(r->rows[1][0].AsString(), "Children");
  EXPECT_EQ(r->rows[1][1].AsInt(), 3);
  EXPECT_EQ(r->rows[2][0].AsString(), "Electronics");
  EXPECT_EQ(r->rows[2][1].AsInt(), 7);
}

TEST_F(GoldenTest, DateDimBounds) {
  Result<QueryResult> r = db_->Query(
      "SELECT MIN(d_date), MAX(d_date) FROM date_dim");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsDate().ToString(), "1900-01-01");
  EXPECT_EQ(r->rows[0][1].AsDate().ToString(), "2099-12-31");
}

/// Result digest of every template at query streams 1 and 2 (default
/// master seed, SF 0.002): FNV-1a over each cell's ToDisplayString, with
/// 0x1f after every cell and 0x1e after every row, the same digest the
/// perfbench `power` workload checks its statements with. Unlike the
/// differential sweeps, which compare the engine with itself, this pins
/// the answers, so a change that alters every execution path alike (for
/// example the Value representation) still trips it.
struct PinnedDigest {
  int template_id;
  int stream;
  uint64_t digest;
};

// clang-format off
constexpr PinnedDigest kPinnedDigests[] = {
    {1, 1, 0x6d6d335cb301db0eull},
    {1, 2, 0x8978c9b1ae06da17ull},
    {2, 1, 0x8a55a839967331e1ull},
    {2, 2, 0x8c49c4dcb6160e05ull},
    {3, 1, 0xdd58cd074c1d831dull},
    {3, 2, 0x03fc20e257d661a6ull},
    {4, 1, 0x930f2dc876770291ull},
    {4, 2, 0x57ad26495d6007a2ull},
    {5, 1, 0x9d52ab877dc6243eull},
    {5, 2, 0x51657ce4f417fa3bull},
    {6, 1, 0x3cd4ab85e463bd16ull},
    {6, 2, 0x18ebd22d00e97ea5ull},
    {7, 1, 0xefd1f2bc2ef683f7ull},
    {7, 2, 0xb9d26137cd069090ull},
    {8, 1, 0x060df426af4fcfc5ull},
    {8, 2, 0x060df426af4fcfc5ull},
    {9, 1, 0x27bf206b7af070edull},
    {9, 2, 0xdca74caa2c93534full},
    {10, 1, 0x89a23e605eed5b42ull},
    {10, 2, 0x89a23e605eed5b42ull},
    {11, 1, 0x4b6ca7744d056139ull},
    {11, 2, 0xec4d171a14c0ee51ull},
    {12, 1, 0x3366699debb2752bull},
    {12, 2, 0x5a216d3c1d7bbb88ull},
    {13, 1, 0x82897de12b5375d7ull},
    {13, 2, 0x5e55662dc2036200ull},
    {14, 1, 0xa155d4cac672953dull},
    {14, 2, 0x732be23ba1639eadull},
    {15, 1, 0x25d04d3a99fed593ull},
    {15, 2, 0x07de608ca1b8ef1aull},
    {16, 1, 0x6eead8cfb40e6d42ull},
    {16, 2, 0x328ed4372e496278ull},
    {17, 1, 0xf5c2ddbca8601119ull},
    {17, 2, 0xdf36271589cac5ecull},
    {18, 1, 0x18d00b9194fb77f5ull},
    {18, 2, 0x3f5af7a19ef7f4b4ull},
    {19, 1, 0xc4619540bf1d5615ull},
    {19, 2, 0xddc1e01819e2698dull},
    {20, 1, 0x280cb38efd78918bull},
    {20, 2, 0xeab3bc1c0c41a55aull},
    {21, 1, 0x5fa24ded6b6b17f4ull},
    {21, 2, 0x5fa24ded6b6b17f4ull},
    {22, 1, 0x14650fb0739d0383ull},
    {22, 2, 0x14650fb0739d0383ull},
    {23, 1, 0xd2b084207c167996ull},
    {23, 2, 0xd2b084207c167996ull},
    {24, 1, 0xe5875fe09830468aull},
    {24, 2, 0xbf25406a44c4bed0ull},
    {25, 1, 0x96afe70ad0dfa1e4ull},
    {25, 2, 0xf50abca4338eb503ull},
    {26, 1, 0xa594711de42e3991ull},
    {26, 2, 0x27094abc777ff4c0ull},
    {27, 1, 0x5d26035a5f73d34dull},
    {27, 2, 0x32d6648592045375ull},
    {28, 1, 0xf9113eb46d5a439dull},
    {28, 2, 0xcb96463f4ee881b1ull},
    {29, 1, 0x7be6be47f4bda9edull},
    {29, 2, 0xd93b50d245416a72ull},
    {30, 1, 0x3eaf9f9dc3187dd0ull},
    {30, 2, 0xfb39b153fe3598cfull},
    {31, 1, 0x7cf2e2c97845dbf4ull},
    {31, 2, 0xc86095d8c7130e63ull},
    {32, 1, 0x2f1b741cde1c4f28ull},
    {32, 2, 0x1488f9dbcdf6e3beull},
    {33, 1, 0x965ad4884b01ed30ull},
    {33, 2, 0x710cee3b8d2df2caull},
    {34, 1, 0x61b1cf932199dbd3ull},
    {34, 2, 0xf0f997ffb6fd1a5dull},
    {35, 1, 0xaf5ac5709ac86dffull},
    {35, 2, 0x9a6bf3540da1df62ull},
    {36, 1, 0xdd0fddbe7911dcd2ull},
    {36, 2, 0x13353057a0a7a06eull},
    {37, 1, 0x773bef3df0fc91b2ull},
    {37, 2, 0x4e4191e9b76aa9dbull},
    {38, 1, 0x0a718ae2916750a5ull},
    {38, 2, 0x4084c68bbfb3ae77ull},
    {39, 1, 0x29c4059afb7840b6ull},
    {39, 2, 0x95ab56c856363276ull},
    {40, 1, 0x86b874f3d3f90649ull},
    {40, 2, 0xeb490d2bf23deb9eull},
    {41, 1, 0x159d7ac79e7f4206ull},
    {41, 2, 0x31cf64d07bf47a0dull},
    {42, 1, 0x14650fb0739d0383ull},
    {42, 2, 0x14650fb0739d0383ull},
    {43, 1, 0xa1673f331a119644ull},
    {43, 2, 0x14650fb0739d0383ull},
    {44, 1, 0x0497ee940f01b5eaull},
    {44, 2, 0x84d99a056874926dull},
    {45, 1, 0x5835a3272e3ab5c7ull},
    {45, 2, 0x0f8af403ab780019ull},
    {46, 1, 0x596ee174e2aa2a33ull},
    {46, 2, 0x14650fb0739d0383ull},
    {47, 1, 0x226c7aa688fb817cull},
    {47, 2, 0x226c7aa688fb817cull},
    {48, 1, 0xc7765068482c1878ull},
    {48, 2, 0x7cb00b7002dcf209ull},
    {49, 1, 0x3f7efd5f6c9bcdc5ull},
    {49, 2, 0xed4649eff717255cull},
    {50, 1, 0xdaa51580d559a380ull},
    {50, 2, 0xdaa51580d559a380ull},
    {51, 1, 0x14650fb0739d0383ull},
    {51, 2, 0x14650fb0739d0383ull},
    {52, 1, 0x23152ced8b2527c4ull},
    {52, 2, 0x14650fb0739d0383ull},
    {53, 1, 0x4f04567ef5e0a526ull},
    {53, 2, 0x22fd9d8059f6e7d5ull},
    {54, 1, 0x5e0ec3b42c2e41edull},
    {54, 2, 0x326722ba3338ac40ull},
    {55, 1, 0x78fc0fe86a82f317ull},
    {55, 2, 0x404bb854a980f405ull},
    {56, 1, 0x752a68400284a570ull},
    {56, 2, 0x752a68400284a570ull},
    {57, 1, 0xc6104a7f5740ffcbull},
    {57, 2, 0x0b8dcb4e8195c8e5ull},
    {58, 1, 0x327b6a1768229a72ull},
    {58, 2, 0xaf9af9163b19d6a3ull},
    {59, 1, 0x5ed5ed01c9cb9ee4ull},
    {59, 2, 0x72bab7c3b1ded92eull},
    {60, 1, 0xc67af8cde06e3c44ull},
    {60, 2, 0xc67af8cde06e3c44ull},
    {61, 1, 0x93616a5948c5edceull},
    {61, 2, 0x415a88caa801d951ull},
    {62, 1, 0x831ab102e60132f4ull},
    {62, 2, 0x34d6864f28ba3d4aull},
    {63, 1, 0x935b08a3551be290ull},
    {63, 2, 0x28beefad61f72c89ull},
    {64, 1, 0x9d95632e3e6fc6e5ull},
    {64, 2, 0x9d95632e3e6fc6e5ull},
    {65, 1, 0xc8c451f5e359f690ull},
    {65, 2, 0xba16d2868ae2ebacull},
    {66, 1, 0xbf1cf6b89d800c91ull},
    {66, 2, 0xbf1cf6b89d800c91ull},
    {67, 1, 0x9784903dc5860943ull},
    {67, 2, 0x9784903dc5860943ull},
    {68, 1, 0x7206ff658cb3741aull},
    {68, 2, 0x714aea7d5beac6b5ull},
    {69, 1, 0x27b0a7adecbeaf7bull},
    {69, 2, 0xdd772e124fd5899dull},
    {70, 1, 0x36c9d2b325f9cbabull},
    {70, 2, 0x36c9d2b325f9cbabull},
    {71, 1, 0x0cf800e4d04881eeull},
    {71, 2, 0xdf8b56badaa1d47bull},
    {72, 1, 0x14650fb0739d0383ull},
    {72, 2, 0x1e8d296bf2e95385ull},
    {73, 1, 0x6845f04d273df670ull},
    {73, 2, 0xc029c4b46ba993aeull},
    {74, 1, 0x93f2cefddef19184ull},
    {74, 2, 0x978617a4b0866f13ull},
    {75, 1, 0x192cf67b19872542ull},
    {75, 2, 0x192cf67b19872542ull},
    {76, 1, 0x369ee52ae60444eaull},
    {76, 2, 0x369ee52ae60444eaull},
    {77, 1, 0x14650fb0739d0383ull},
    {77, 2, 0x14650fb0739d0383ull},
    {78, 1, 0x162fdea59f10cc65ull},
    {78, 2, 0x1a77a681fd21e6e7ull},
    {79, 1, 0x01cf7a68206a7a41ull},
    {79, 2, 0x470d6ee3441b5660ull},
    {80, 1, 0xc5777a9f4697ca65ull},
    {80, 2, 0x8e4d3bb55952ce14ull},
    {81, 1, 0x51574210ff5fd995ull},
    {81, 2, 0x80eadb439e8f7918ull},
    {82, 1, 0xb4b1e15815797d3dull},
    {82, 2, 0xfaa6b5e9f06ff43dull},
    {83, 1, 0xdc8193a029920d3aull},
    {83, 2, 0x147f23d4d1881693ull},
    {84, 1, 0xd633e51291ec8cd3ull},
    {84, 2, 0xefcf08f5ed13ba7bull},
    {85, 1, 0xb840f6eb73448e8eull},
    {85, 2, 0xb840f6eb73448e8eull},
    {86, 1, 0x4b1fccb534e71d84ull},
    {86, 2, 0x4b1fccb534e71d84ull},
    {87, 1, 0xb2016475c7dad9d5ull},
    {87, 2, 0xb2016475c7dad9d5ull},
    {88, 1, 0x0c0ec9410ec00167ull},
    {88, 2, 0xb64d4243eb942ce7ull},
    {89, 1, 0x72511611c29b87b3ull},
    {89, 2, 0x99ba31eb52c646baull},
    {90, 1, 0x8aa31ae276bebeddull},
    {90, 2, 0xff9c054161f09c56ull},
    {91, 1, 0xf2bf08fe39b2800cull},
    {91, 2, 0x29560b5bbead3752ull},
    {92, 1, 0x14650fb0739d0383ull},
    {92, 2, 0x14650fb0739d0383ull},
    {93, 1, 0x864340ab2785dd65ull},
    {93, 2, 0x841e9ee8f229254aull},
    {94, 1, 0xb4b4be252390858eull},
    {94, 2, 0xf4b09cdad13009e9ull},
    {95, 1, 0xc7541c21717d6927ull},
    {95, 2, 0xc7541c21717d6927ull},
    {96, 1, 0xff1f07ef94857538ull},
    {96, 2, 0x2c3c990b9b546735ull},
    {97, 1, 0xb4c8dc5bbeb929c8ull},
    {97, 2, 0xd12391843aa4777cull},
    {98, 1, 0x2ff9563e15bd3150ull},
    {98, 2, 0x323228a9b9691964ull},
    {99, 1, 0xb6171a038f5d06c4ull},
    {99, 2, 0xb6171a038f5d06c4ull},
};
// clang-format on

uint64_t DigestRows(const std::vector<std::vector<Value>>& rows) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& row : rows) {
    for (const Value& v : row) {
      mix(v.ToDisplayString());
      mix("\x1f");
    }
    mix("\x1e");
  }
  return h;
}

TEST_F(GoldenTest, TemplateResultDigestsArePinned) {
  std::map<std::pair<int, int>, uint64_t> pinned;
  for (const PinnedDigest& p : kPinnedDigests) {
    pinned[{p.template_id, p.stream}] = p.digest;
  }
  const std::vector<QueryTemplate>& templates = AllTemplates();
  ASSERT_EQ(templates.size(), 99u);
  QueryGenerator qgen(GeneratorOptions().master_seed);
  std::string table;  // the regenerated kPinnedDigests body
  int mismatches = 0;
  for (const QueryTemplate& tmpl : templates) {
    for (int stream : {1, 2}) {
      Result<std::string> sql = qgen.Instantiate(tmpl, stream);
      ASSERT_TRUE(sql.ok()) << "template " << tmpl.id;
      Result<QueryResult> r = db_->Query(*sql);
      ASSERT_TRUE(r.ok()) << "template " << tmpl.id << " stream " << stream
                          << ": " << r.status().ToString();
      uint64_t digest = DigestRows(r->rows);
      char line[64];
      std::snprintf(line, sizeof(line), "    {%d, %d, 0x%016" PRIx64 "ull},\n",
                    tmpl.id, stream, digest);
      table += line;
      auto it = pinned.find({tmpl.id, stream});
      if (it == pinned.end() || it->second != digest) {
        ++mismatches;
        ADD_FAILURE() << "template " << tmpl.id << " stream " << stream
                      << ": result digest changed";
      }
    }
  }
  EXPECT_EQ(mismatches, 0)
      << "if the new answers are intended, replace kPinnedDigests with:\n"
      << table;
}

}  // namespace
}  // namespace tpcds
