// Shared executor pool tests. Every statement's morsel-parallel operators
// run on one process-wide pool (SharedExecutorPool in util/threadpool.h),
// so statements from different sessions interleave on the same workers.
// These tests pin what that sharing must not break: ParallelFor completes
// from inside a pool unit and never waits for a helper that has not
// started; concurrent statements return their serial bytes; a statement
// cancelled or deadline-tripped mid-run neither blocks nor corrupts a
// neighbour; running statements creates no threads; and a query
// service's worker slots split the cores between them. Part of the
// TSan/ASan suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "qgen/qgen.h"
#include "service/service.h"
#include "templates/templates.h"
#include "util/threadpool.h"

namespace tpcds {
namespace {

/// Counts arrivals; ArriveAndWait() also blocks until the test opens it.
class Latch {
 public:
  void Arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
  }
  void ArriveAndWait() {
    Arrive();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitForArrivals(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

TEST(ThreadPoolParallelForTest, CompletesWhenIssuedFromInsidePoolUnits) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(8, 2, [&](size_t outer) {
    pool.ParallelFor(100, 2, [&](size_t inner) {
      sum.fetch_add(static_cast<int64_t>(outer * 100 + inner));
    });
  });
  EXPECT_EQ(sum.load(), 799 * 800 / 2);
}

TEST(ThreadPoolParallelForTest, NeverWaitsForHelpersThatHaveNotStarted) {
  auto pool = std::make_unique<ThreadPool>(2);
  Latch latch;
  for (int i = 0; i < 2; ++i) {
    pool->Submit([&latch] { latch.ArriveAndWait(); });
  }
  latch.WaitForArrivals(2);  // every worker is busy: no helper can start
  int ran = 0;              // touched by the calling thread only
  pool->ParallelFor(16, 2, [&ran](size_t) { ++ran; });
  EXPECT_EQ(ran, 16);
  // The queued helpers start now, after their call returned: they must
  // find no unit left and leave without calling the (dead) function. The
  // destructor runs them before it joins the workers.
  latch.Open();
  pool.reset();
  EXPECT_EQ(ran, 16);
}

TEST(PlannerDefaultsTest, QueriesRunParallelByDefault) {
  EXPECT_EQ(PlannerOptions().parallelism, 0);
}

TEST(PlannerDefaultsTest, ServiceSlotsShareTheCores) {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  for (int slots : {1, 2, 3, 64}) {
    ServiceConfig config;
    config.worker_slots = slots;
    QueryService service(config, std::shared_ptr<const DataFacade>());
    EXPECT_EQ(service.config().planner.parallelism,
              std::max(1, cores / slots))
        << slots << " slots";
  }
  ServiceConfig config;  // an explicit setting is kept
  config.planner.parallelism = 3;
  QueryService service(config, std::shared_ptr<const DataFacade>());
  EXPECT_EQ(service.config().planner.parallelism, 3);
}

/// TPC-DS at smoke scale, served through the query service with the
/// process-wide pool shared by every running statement.
class SharedPoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(db_->LoadTpcdsData(options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::vector<std::string> TemplateSql(std::vector<int> ids) {
    QueryGenerator qgen(19620718);
    std::vector<std::string> out;
    for (int id : ids) {
      const QueryTemplate* tmpl = FindTemplate(id);
      EXPECT_NE(tmpl, nullptr) << "template " << id;
      if (tmpl == nullptr) continue;
      Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
      EXPECT_TRUE(sql.ok()) << "template " << id;
      if (sql.ok()) out.push_back(*sql);
    }
    return out;
  }

  static std::string SerialCsv(const std::string& sql) {
    PlannerOptions options = db_->default_options();
    options.parallelism = 1;
    Result<QueryResult> r = db_->Query(sql, options, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->ToCsv() : "";
  }

  static ServiceConfig ParallelService(int slots) {
    ServiceConfig config;
    config.worker_slots = slots;
    config.max_queue_depth = 0;
    config.planner.parallelism = 4;  // parallel even on a one-core host
    return config;
  }

  /// A nested-loop self-join over ~32M row pairs: runs for seconds unless
  /// its governor trips.
  static constexpr const char* kRunaway =
      "SELECT COUNT(*) FROM store_sales a, store_sales b "
      "WHERE a.ss_item_sk + b.ss_item_sk < 0";

  static SessionOptions Tenant(const std::string& name) {
    SessionOptions options;
    options.tenant = name;
    return options;
  }

  static Database* db_;
};

Database* SharedPoolTest::db_ = nullptr;

TEST_F(SharedPoolTest, ConcurrentSessionsGetSerialBytes) {
  std::vector<std::string> sqls = TemplateSql({3, 7, 19, 42, 52, 55, 96});
  std::vector<std::string> expected;
  for (const std::string& sql : sqls) expected.push_back(SerialCsv(sql));
  QueryService service(ParallelService(2), *db_);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      Session session = service.OpenSession(Tenant("client-" + std::to_string(c)));
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < sqls.size(); ++i) {
          // The two clients walk the list in opposite directions, so
          // different statements overlap on the pool.
          size_t q = c == 0 ? i : sqls.size() - 1 - i;
          QueryOutcome out = session.Execute(sqls[q]);
          ASSERT_EQ(out.disposition, QueryDisposition::kCompleted)
              << out.status.ToString();
          EXPECT_EQ(out.result.ToCsv(), expected[q]) << sqls[q];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(service.Counters().Balanced());
}

TEST_F(SharedPoolTest, TrippedStatementsLeaveConcurrentOnesIntact) {
  std::vector<std::string> sqls = TemplateSql({7, 42, 55});
  std::vector<std::string> expected;
  for (const std::string& sql : sqls) expected.push_back(SerialCsv(sql));

  ServiceConfig config = ParallelService(3);
  Latch started;
  config.on_execute = [&started](const std::string& sql, int) {
    if (sql == kRunaway) started.Arrive();
  };
  QueryService service(config, *db_);

  std::atomic<bool> done{false};
  std::thread neighbour([&] {
    Session session = service.OpenSession(Tenant("neighbour"));
    int rounds = 0;
    while (!done.load() || rounds < 2) {
      for (size_t q = 0; q < sqls.size(); ++q) {
        QueryOutcome out = session.Execute(sqls[q]);
        ASSERT_EQ(out.disposition, QueryDisposition::kCompleted)
            << out.status.ToString();
        EXPECT_EQ(out.result.ToCsv(), expected[q]) << sqls[q];
      }
      ++rounds;
    }
  });

  // Cancelled mid-run: cancel once the statement is executing. A (far
  // off) timeout makes the join consult its governor per row, so the
  // cancellation lands promptly instead of at the next morsel boundary.
  SessionOptions governed = Tenant("cancelled");
  governed.limits.timeout_ms = 600000;
  Session canceller = service.OpenSession(governed);
  QueryTicket ticket = canceller.Submit(kRunaway);
  started.WaitForArrivals(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ticket.Cancel("test cancel");
  const QueryOutcome& cancelled = ticket.Wait();
  EXPECT_EQ(cancelled.disposition, QueryDisposition::kFailed);
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled)
      << cancelled.status.ToString();

  // Deadline tripped mid-run by the governor's timeout.
  SessionOptions limited = Tenant("deadline");
  limited.limits.timeout_ms = 30;
  QueryOutcome timed_out = service.OpenSession(limited).Execute(kRunaway);
  EXPECT_EQ(timed_out.disposition, QueryDisposition::kFailed);
  EXPECT_EQ(timed_out.status.code(), StatusCode::kDeadlineExceeded)
      << timed_out.status.ToString();

  done.store(true);
  neighbour.join();
  EXPECT_TRUE(service.Counters().Balanced());
}

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(SharedPoolTest, StatementsCreateNoThreads) {
  std::vector<std::string> sqls = TemplateSql({3, 42, 52, 55});
  PlannerOptions options = db_->default_options();
  options.parallelism = 4;
  // The first parallel statement may create the pool; none after it may
  // create or keep a thread.
  ASSERT_TRUE(db_->Query(sqls[0], options, nullptr).ok());
  size_t before = ThreadCount();
  for (int i = 0; i < 100; ++i) {
    Result<QueryResult> r =
        db_->Query(sqls[static_cast<size_t>(i) % sqls.size()], options,
                   nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(ThreadCount(), before);
}

}  // namespace
}  // namespace tpcds
