// The 99-query workload end to end: executes every template once and
// reports per-class timing — the paper's ad-hoc / reporting / hybrid split
// and the standard / iterative-OLAP / data-mining flavours (§4.1).
//
// `-json <path>` additionally writes a machine-readable perf trajectory
// (per-template wall ms, scanned rows/sec, zone-map pruning and Bloom
// counters) so CI can diff against the checked-in baseline JSON.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "driver/profile.h"
#include "maintenance/maintenance.h"
#include "metric/metric.h"
#include "qgen/qgen.h"
#include "service/service.h"
#include "templates/templates.h"
#include "util/stopwatch.h"
#include "util/wal.h"

namespace tpcds {
namespace {

struct ClassTally {
  int queries = 0;
  double seconds = 0;
  int64_t rows = 0;
};

struct TemplateResult {
  int id = 0;
  std::string name;
  std::string query_class;
  std::string flavor;
  double seconds = 0;
  int64_t result_rows = 0;
  int64_t rows_scanned = 0;
  int64_t morsels_pruned = 0;
  int64_t bloom_rejects = 0;
  int64_t topk_seen = 0;
  int64_t topk_kept = 0;
  int64_t bytes_touched = 0;
  bool agg_heavy = false;    // instantiated SQL contains a GROUP BY
  bool order_heavy = false;  // instantiated SQL contains an ORDER BY

  double RowsPerSec() const {
    return seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0;
  }
};

/// Subtotal over one template group (aggregate-heavy / order-by-heavy /
/// the join-heavy optimizer sample): scanned rows/sec over the group
/// isolates regressions that the workload-wide total would average away.
struct GroupTally {
  int queries = 0;
  double seconds = 0;
  int64_t rows_scanned = 0;

  double RowsPerSec() const {
    return seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0;
  }
};

GroupTally TallyGroup(const std::vector<TemplateResult>& results,
                      bool TemplateResult::*member) {
  GroupTally g;
  for (const TemplateResult& r : results) {
    if (!(r.*member)) continue;
    ++g.queries;
    g.seconds += r.seconds;
    g.rows_scanned += r.rows_scanned;
  }
  return g;
}

/// The median of `v` (upper middle for even sizes); 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Timed passes per side of an in-run measurement (the optimizer sample,
/// the heap/mmap pair, the WAL pair).
constexpr int kTimedPasses = 5;

/// Runs `pass(side)` for sides 0 .. sides-1: one untimed warm-up round,
/// then kTimedPasses timed rounds that interleave the sides so cache drift
/// and CPU frequency wander hit all of them equally. `pass` returns the
/// seconds of its timed region, so per-pass setup stays untimed. Returns
/// each side's median pass seconds; a single spike cannot move a median.
template <typename Fn>
std::vector<double> MedianPassSeconds(int sides, const Fn& pass) {
  std::vector<std::vector<double>> seconds(static_cast<size_t>(sides));
  for (int round = -1; round < kTimedPasses; ++round) {
    for (int side = 0; side < sides; ++side) {
      double elapsed = pass(side);
      if (round >= 0) seconds[static_cast<size_t>(side)].push_back(elapsed);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& v : seconds) medians.push_back(Median(v));
  return medians;
}

/// Runs every statement once against `db`, exiting on any failure; stores
/// the statements' scanned rows in `*rows_scanned` and returns the wall
/// seconds of the run.
double RunStatements(Database* db, const std::vector<std::string>& sqls,
                     const PlannerOptions& options, const char* what,
                     int64_t* rows_scanned) {
  *rows_scanned = 0;
  Stopwatch timer;
  for (const std::string& sql : sqls) {
    ExecStats stats;
    Result<QueryResult> r = db->Query(sql, options, &stats);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
      std::exit(1);
    }
    *rows_scanned += stats.rows_scanned;
  }
  return timer.ElapsedSeconds();
}

/// The optimizer group: join-heavy star templates where join order and
/// semi-join/Bloom pushdown decisions dominate the plan shape, timed as
/// the median of kTimedPasses passes after a warm-up.
GroupTally RunOptimizerSweep(Database* db, const PlannerOptions& options) {
  constexpr int kTemplateIds[] = {3, 7, 19, 25, 27, 42, 55, 72, 91, 96};

  QueryGenerator qgen(19620718);
  std::vector<std::string> statements;
  for (int id : kTemplateIds) {
    const QueryTemplate* t = FindTemplate(id);
    if (t == nullptr) continue;
    Result<std::string> sql = qgen.Instantiate(*t, 1);
    if (sql.ok()) statements.push_back(*sql);
  }

  GroupTally tally;
  tally.queries = static_cast<int>(statements.size());
  // The warm-up pass builds lazy indexes; every pass scans the same rows.
  tally.seconds = MedianPassSeconds(1, [&](int) {
    return RunStatements(db, statements, options, "optimizer sweep",
                         &tally.rows_scanned);
  })[0];
  return tally;
}

/// One side of the durability pair, WAL off or on: the pair quantifies the
/// durability overhead (logical logging + per-op commit markers) so CI can
/// gate it — WAL-on must stay within 30% of WAL-off throughput. `seconds`
/// is the median refresh cycle over interleaved passes.
struct MaintenanceTally {
  int ops = 0;
  double seconds = 0;
  int64_t rows = 0;

  double RowsPerSec() const {
    return seconds > 0 ? static_cast<double>(rows) / seconds : 0.0;
  }
};

/// One backing of the cold-start pair: the checkpoint deep-loaded onto the
/// heap (full CRC sweep + materialization) or O(1) mmap-attached, then the
/// 99-template sweep against it. The heap/mmap pair quantifies the cost of
/// querying straight out of the mapping, which CI gates: mmap-attached
/// throughput must keep at least 90% of the heap-loaded rate. `seconds`
/// is the median sweep over interleaved passes (MedianPassSeconds).
struct ColdStartTally {
  double open_seconds = 0;  // LoadCheckpoint / AttachCheckpoint wall time
  int queries = 0;
  double seconds = 0;
  int64_t rows_scanned = 0;

  double RowsPerSec() const {
    return seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0;
  }
};

/// Opens the checkpoint both ways, then times the sweep on each backing.
std::pair<ColdStartTally, ColdStartTally> RunColdStarts(
    const std::string& ckpt_dir, const PlannerOptions& options) {
  ColdStartTally tally[2];
  Database db[2];
  for (int side = 0; side < 2; ++side) {
    const bool mmap_attach = side == 1;
    Stopwatch open_timer;
    Status st = mmap_attach ? db[side].AttachCheckpoint(ckpt_dir)
                            : db[side].LoadCheckpoint(ckpt_dir);
    tally[side].open_seconds = open_timer.ElapsedSeconds();
    if (!st.ok()) {
      std::fprintf(stderr, "cold start (%s): %s\n",
                   mmap_attach ? "mmap" : "heap", st.ToString().c_str());
      std::exit(1);
    }
  }
  QueryGenerator qgen(19620718);
  std::vector<std::string> statements;
  for (const QueryTemplate& t : AllTemplates()) {
    Result<std::string> sql = qgen.Instantiate(t, 1);
    if (sql.ok()) statements.push_back(*sql);
  }
  std::vector<double> seconds = MedianPassSeconds(2, [&](int side) {
    return RunStatements(
        &db[side], statements, options,
        side == 1 ? "cold start (mmap)" : "cold start (heap)",
        &tally[side].rows_scanned);
  });
  for (int side = 0; side < 2; ++side) {
    tally[side].queries = static_cast<int>(statements.size());
    tally[side].seconds = seconds[static_cast<size_t>(side)];
  }
  return {tally[0], tally[1]};
}

/// The admission-control closed loop: 128 concurrent sessions multiplexed
/// onto two worker slots of one QueryService, each session issuing its
/// next statement only after the previous one resolves. Saturation keeps
/// the admission queue deep (peak ~ sessions - slots) while the closed
/// loop bounds it, so every statement completes — the bench itself
/// asserts the no-lost-queries balance and that the global memory pool
/// drains, and exits 1 otherwise. Client-observed p50/p99 and scanned
/// rows/sec feed the perf gate.
struct ServiceTally {
  int sessions = 0;
  int worker_slots = 0;
  int statements = 0;
  double seconds = 0;
  int64_t rows_scanned = 0;
  LatencySummary latency;
  ServiceCounters counters;

  double RowsPerSec() const {
    return seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0;
  }
};

ServiceTally RunServiceConcurrent(const Database& db,
                                  const PlannerOptions& options) {
  constexpr int kSessions = 128;
  constexpr int kStatementsPerSession = 3;
  // The attach-verify sample set: known-cheap, spans the query classes.
  constexpr int kTemplateIds[] = {3, 27, 55, 82, 96};

  QueryGenerator qgen(19620718);
  std::vector<std::string> statements;
  for (int id : kTemplateIds) {
    const QueryTemplate* t = FindTemplate(id);
    if (t == nullptr) {
      std::fprintf(stderr, "service bench: no template %d\n", id);
      std::exit(1);
    }
    Result<std::string> sql = qgen.Instantiate(*t, 1);
    if (!sql.ok()) {
      std::fprintf(stderr, "service bench q%02d: %s\n", id,
                   sql.status().ToString().c_str());
      std::exit(1);
    }
    statements.push_back(*sql);
  }

  ServiceConfig cfg;
  cfg.worker_slots = 2;
  cfg.max_queue_depth = kSessions + 32;  // closed loop never overflows it
  cfg.planner = options;
  QueryService service(cfg, db);

  ServiceTally tally;
  tally.sessions = kSessions;
  tally.worker_slots = cfg.worker_slots;
  tally.statements = kSessions * kStatementsPerSession;
  std::mutex mu;
  std::vector<double> latencies;
  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    SessionOptions so;
    so.tenant = "bench-" + std::to_string(s);
    so.priority = s % 3;
    Session session = service.OpenSession(so);
    clients.emplace_back([&, s, session] {
      for (int i = 0; i < kStatementsPerSession; ++i) {
        const std::string& sql =
            statements[(s * kStatementsPerSession + i) % statements.size()];
        QueryOutcome out = session.Execute(sql);
        if (out.disposition != QueryDisposition::kCompleted) {
          std::fprintf(stderr, "service bench session %d: %s (%s)\n", s,
                       QueryDispositionToString(out.disposition),
                       out.status.ToString().c_str());
          std::exit(1);
        }
        std::lock_guard<std::mutex> lock(mu);
        latencies.push_back(out.total_ms);
        tally.rows_scanned += out.rows_scanned;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  tally.seconds = wall.ElapsedSeconds();
  tally.latency = SummarizeLatenciesMs(std::move(latencies));
  tally.counters = service.Counters();
  if (!tally.counters.Balanced() ||
      tally.counters.completed != tally.statements ||
      tally.counters.pool_bytes_in_use != 0) {
    std::fprintf(stderr, "service bench lost queries:\n%s",
                 tally.counters.ToString().c_str());
    std::exit(1);
  }
  return tally;
}

/// The workload-profile closed loops: the same cheap template pool the
/// service bench uses, but with each session's statement sequence and bind
/// values drawn through a WorkloadProfile — Zipf-skewed substitutions,
/// class-weighted template mixes, iterative session chains. One tally per
/// profile becomes a gated perf group, so a regression in the skewed /
/// chained paths (the chaos-drill workloads) fails CI even when the
/// uniform sweep is unaffected.
ServiceTally RunProfileLoop(const Database& db, const PlannerOptions& options,
                            const WorkloadProfile& profile) {
  constexpr int kSessions = 16;
  constexpr int kStatementsPerSession = 6;
  constexpr int kTemplateIds[] = {3, 27, 55, 82, 96};

  QueryGenerator qgen(19620718);
  std::vector<QueryTemplate> pool;
  for (int id : kTemplateIds) {
    const QueryTemplate* t = FindTemplate(id);
    if (t == nullptr) {
      std::fprintf(stderr, "profile bench: no template %d\n", id);
      std::exit(1);
    }
    pool.push_back(*t);
  }

  // Pre-instantiate outside the timed region: the loop measures execution
  // under admission control, not qgen.
  std::vector<std::vector<std::string>> session_sql(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    std::vector<ProfileSlot> slots =
        qgen.ProfileSequence(s + 1, pool, profile.bind,
                             kStatementsPerSession);
    for (const ProfileSlot& slot : slots) {
      Result<std::string> sql =
          qgen.Instantiate(pool[slot.template_index], s + 1, 0,
                           &profile.bind, slot.chain_step);
      if (!sql.ok()) {
        std::fprintf(stderr, "profile bench (%s) stream %d: %s\n",
                     profile.name.c_str(), s + 1,
                     sql.status().ToString().c_str());
        std::exit(1);
      }
      session_sql[s].push_back(*sql);
    }
  }

  ServiceConfig cfg;
  cfg.worker_slots = 2;
  cfg.max_queue_depth = kSessions + 16;  // closed loop never overflows it
  cfg.planner = options;
  QueryService service(cfg, db);

  ServiceTally tally;
  tally.sessions = kSessions;
  tally.worker_slots = cfg.worker_slots;
  tally.statements = kSessions * kStatementsPerSession;
  std::mutex mu;
  std::vector<double> latencies;
  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    SessionOptions so;
    so.tenant = profile.name + "-" + std::to_string(s);
    Session session = service.OpenSession(so);
    clients.emplace_back([&, s, session] {
      for (const std::string& sql : session_sql[s]) {
        QueryOutcome out = session.Execute(sql);
        if (out.disposition != QueryDisposition::kCompleted) {
          std::fprintf(stderr, "profile bench (%s) session %d: %s (%s)\n",
                       profile.name.c_str(), s,
                       QueryDispositionToString(out.disposition),
                       out.status.ToString().c_str());
          std::exit(1);
        }
        std::lock_guard<std::mutex> lock(mu);
        latencies.push_back(out.total_ms);
        tally.rows_scanned += out.rows_scanned;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  tally.seconds = wall.ElapsedSeconds();
  tally.latency = SummarizeLatenciesMs(std::move(latencies));
  tally.counters = service.Counters();
  if (!tally.counters.Balanced() ||
      tally.counters.completed != tally.statements ||
      !tally.counters.PoolDrained()) {
    std::fprintf(stderr, "profile bench (%s) lost queries:\n%s",
                 profile.name.c_str(), tally.counters.ToString().c_str());
    std::exit(1);
  }
  return tally;
}

MaintenanceTally RunMaintenanceCycle(Database* db, double sf,
                                     WalWriter* wal) {
  MaintenanceOptions options;
  options.scale_factor = sf;
  options.refresh_cycle = 1;
  options.dimension_updates = 50;
  MaintenanceReport report;
  Stopwatch timer;
  Status st = RunDataMaintenance(db, options, &report, wal);
  MaintenanceTally tally;
  tally.seconds = timer.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "data maintenance: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  tally.ops = static_cast<int>(report.operations.size());
  tally.rows = report.TotalRows();
  return tally;
}

/// The durability pair: refresh cycle 1 without a WAL and through one.
/// Every pass runs on a fresh copy-on-write fork of the loaded generation
/// (forked outside the timed region), so all passes do identical work.
std::pair<MaintenanceTally, MaintenanceTally> RunMaintenancePair(
    const Database& db, double sf) {
  const std::string wal_path =
      (std::filesystem::temp_directory_path() / "bench_throughput.wal")
          .string();
  MaintenanceTally tally[2];
  std::vector<double> seconds = MedianPassSeconds(2, [&](int side) {
    Result<std::unique_ptr<Database>> fork =
        db.ForkForMaintenance(MaintainedTables());
    if (!fork.ok()) {
      std::fprintf(stderr, "maintenance fork: %s\n",
                   fork.status().ToString().c_str());
      std::exit(1);
    }
    WalWriter wal;
    if (side == 1) {
      std::filesystem::remove(wal_path);
      if (!wal.Open(wal_path).ok()) {
        std::fprintf(stderr, "cannot open WAL at %s\n", wal_path.c_str());
        std::exit(1);
      }
    }
    tally[side] =
        RunMaintenanceCycle(fork->get(), sf, side == 1 ? &wal : nullptr);
    if (side == 1) {
      (void)wal.Close();
      std::filesystem::remove(wal_path);
    }
    return tally[side].seconds;
  });
  if (tally[1].rows != tally[0].rows) {
    std::fprintf(stderr,
                 "maintenance pair diverged: %lld rows without the WAL, "
                 "%lld with it\n",
                 static_cast<long long>(tally[0].rows),
                 static_cast<long long>(tally[1].rows));
    std::exit(1);
  }
  tally[0].seconds = seconds[0];
  tally[1].seconds = seconds[1];
  return {tally[0], tally[1]};
}

void WriteJson(const char* path, double sf,
               const std::vector<TemplateResult>& results,
               const MaintenanceTally& dm_off,
               const MaintenanceTally& dm_on,
               const ColdStartTally& attach_heap,
               const ColdStartTally& attach_mmap,
               const ServiceTally& svc,
               const GroupTally& opt,
               const std::vector<std::pair<std::string, ServiceTally>>&
                   profiles) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  double total_seconds = 0;
  int64_t total_scanned = 0;
  int64_t total_pruned = 0;
  int64_t total_bloom = 0;
  int64_t total_topk_seen = 0;
  int64_t total_topk_kept = 0;
  int64_t total_bytes = 0;
  for (const TemplateResult& r : results) {
    total_seconds += r.seconds;
    total_scanned += r.rows_scanned;
    total_pruned += r.morsels_pruned;
    total_bloom += r.bloom_rejects;
    total_topk_seen += r.topk_seen;
    total_topk_kept += r.topk_kept;
    total_bytes += r.bytes_touched;
  }
  GroupTally agg = TallyGroup(results, &TemplateResult::agg_heavy);
  GroupTally order = TallyGroup(results, &TemplateResult::order_heavy);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_query_throughput\",\n");
  std::fprintf(f, "  \"scale_factor\": %.4f,\n", sf);
  std::fprintf(f, "  \"total_seconds\": %.6f,\n", total_seconds);
  std::fprintf(f, "  \"total_rows_scanned\": %lld,\n",
               static_cast<long long>(total_scanned));
  std::fprintf(f, "  \"total_rows_per_sec\": %.1f,\n",
               total_seconds > 0 ? total_scanned / total_seconds : 0.0);
  std::fprintf(f, "  \"total_morsels_pruned\": %lld,\n",
               static_cast<long long>(total_pruned));
  std::fprintf(f, "  \"total_bloom_rejects\": %lld,\n",
               static_cast<long long>(total_bloom));
  std::fprintf(f, "  \"total_topk_seen\": %lld,\n",
               static_cast<long long>(total_topk_seen));
  std::fprintf(f, "  \"total_topk_kept\": %lld,\n",
               static_cast<long long>(total_topk_kept));
  std::fprintf(f, "  \"total_bytes_touched\": %lld,\n",
               static_cast<long long>(total_bytes));
  std::fprintf(f, "  \"groups\": {\n");
  std::fprintf(f,
               "    \"agg_heavy\": {\"queries\": %d, \"seconds\": %.6f, "
               "\"rows_scanned\": %lld, \"rows_per_sec\": %.1f},\n",
               agg.queries, agg.seconds,
               static_cast<long long>(agg.rows_scanned), agg.RowsPerSec());
  std::fprintf(f,
               "    \"order_by_heavy\": {\"queries\": %d, \"seconds\": %.6f, "
               "\"rows_scanned\": %lld, \"rows_per_sec\": %.1f},\n",
               order.queries, order.seconds,
               static_cast<long long>(order.rows_scanned),
               order.RowsPerSec());
  std::fprintf(f,
               "    \"maintenance_wal_off\": {\"ops\": %d, \"seconds\": "
               "%.6f, \"rows\": %lld, \"rows_per_sec\": %.1f},\n",
               dm_off.ops, dm_off.seconds,
               static_cast<long long>(dm_off.rows), dm_off.RowsPerSec());
  std::fprintf(f,
               "    \"maintenance_wal_on\": {\"ops\": %d, \"seconds\": "
               "%.6f, \"rows\": %lld, \"rows_per_sec\": %.1f},\n",
               dm_on.ops, dm_on.seconds,
               static_cast<long long>(dm_on.rows), dm_on.RowsPerSec());
  std::fprintf(f,
               "    \"attach_heap\": {\"open_seconds\": %.6f, \"queries\": "
               "%d, \"seconds\": %.6f, \"rows_scanned\": %lld, "
               "\"rows_per_sec\": %.1f},\n",
               attach_heap.open_seconds, attach_heap.queries,
               attach_heap.seconds,
               static_cast<long long>(attach_heap.rows_scanned),
               attach_heap.RowsPerSec());
  std::fprintf(f,
               "    \"attach_mmap\": {\"open_seconds\": %.6f, \"queries\": "
               "%d, \"seconds\": %.6f, \"rows_scanned\": %lld, "
               "\"rows_per_sec\": %.1f},\n",
               attach_mmap.open_seconds, attach_mmap.queries,
               attach_mmap.seconds,
               static_cast<long long>(attach_mmap.rows_scanned),
               attach_mmap.RowsPerSec());
  std::fprintf(f,
               "    \"service_concurrent\": {\"sessions\": %d, "
               "\"statements\": %d, \"seconds\": %.6f, "
               "\"rows_scanned\": %lld, \"rows_per_sec\": %.1f, "
               "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
               "\"peak_queue_depth\": %lld, \"shed\": %lld, "
               "\"rejected\": %lld},\n",
               svc.sessions, svc.statements, svc.seconds,
               static_cast<long long>(svc.rows_scanned), svc.RowsPerSec(),
               svc.latency.p50_ms, svc.latency.p95_ms, svc.latency.p99_ms,
               static_cast<long long>(svc.counters.peak_queue_depth),
               static_cast<long long>(svc.counters.shed),
               static_cast<long long>(svc.counters.rejected_queue_full +
                                      svc.counters.rejected_deadline));
  for (const auto& [name, pt] : profiles) {
    std::fprintf(f,
                 "    \"%s\": {\"sessions\": %d, \"statements\": %d, "
                 "\"seconds\": %.6f, \"rows_scanned\": %lld, "
                 "\"rows_per_sec\": %.1f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f},\n",
                 name.c_str(), pt.sessions, pt.statements, pt.seconds,
                 static_cast<long long>(pt.rows_scanned), pt.RowsPerSec(),
                 pt.latency.p50_ms, pt.latency.p95_ms, pt.latency.p99_ms);
  }
  std::fprintf(f,
               "    \"optimizer\": {\"queries\": %d, \"seconds\": %.6f, "
               "\"rows_scanned\": %lld, \"rows_per_sec\": %.1f}\n",
               opt.queries, opt.seconds,
               static_cast<long long>(opt.rows_scanned), opt.RowsPerSec());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"templates\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const TemplateResult& r = results[i];
    std::fprintf(
        f,
        "    {\"id\": %d, \"name\": \"%s\", \"class\": \"%s\", "
        "\"flavor\": \"%s\", \"seconds\": %.6f, \"result_rows\": %lld, "
        "\"rows_scanned\": %lld, \"rows_per_sec\": %.1f, "
        "\"morsels_pruned\": %lld, \"bloom_rejects\": %lld, "
        "\"topk_seen\": %lld, \"topk_kept\": %lld, "
        "\"bytes_touched\": %lld, "
        "\"agg_heavy\": %s, \"order_by_heavy\": %s}%s\n",
        r.id, r.name.c_str(), r.query_class.c_str(), r.flavor.c_str(),
        r.seconds, static_cast<long long>(r.result_rows),
        static_cast<long long>(r.rows_scanned), r.RowsPerSec(),
        static_cast<long long>(r.morsels_pruned),
        static_cast<long long>(r.bloom_rejects),
        static_cast<long long>(r.topk_seen),
        static_cast<long long>(r.topk_kept),
        static_cast<long long>(r.bytes_touched),
        r.agg_heavy ? "true" : "false", r.order_heavy ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void Run(const char* json_path) {
  double sf = bench::BenchScaleFactor(0.01);
  std::unique_ptr<Database> db = bench::LoadDatabase(sf);
  QueryGenerator qgen(19620718);

  const PlannerOptions options = db->default_options();

  std::map<std::string, ClassTally> by_class;
  std::map<std::string, ClassTally> by_flavor;
  std::vector<TemplateResult> results;
  double total = 0;
  double slowest = 0;
  int slowest_id = 0;
  for (const QueryTemplate& t : AllTemplates()) {
    Result<std::string> sql = qgen.Instantiate(t, 1);
    if (!sql.ok()) {
      std::fprintf(stderr, "%s: %s\n", t.name.c_str(),
                   sql.status().ToString().c_str());
      continue;
    }
    ExecStats stats;
    Stopwatch timer;
    Result<QueryResult> r = db->Query(*sql, options, &stats);
    double seconds = timer.ElapsedSeconds();
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", t.name.c_str(),
                   r.status().ToString().c_str());
      continue;
    }
    total += seconds;
    if (seconds > slowest) {
      slowest = seconds;
      slowest_id = t.id;
    }
    TemplateResult res;
    res.id = t.id;
    res.name = t.name;
    res.query_class = QueryClassToString(t.query_class);
    res.flavor = QueryFlavorToString(t.flavor);
    res.seconds = seconds;
    res.result_rows = static_cast<int64_t>(r->rows.size());
    res.rows_scanned = stats.rows_scanned;
    res.morsels_pruned = stats.morsels_pruned;
    res.bloom_rejects = stats.bloom_rejects;
    res.topk_seen = stats.topk_seen;
    res.topk_kept = stats.topk_kept;
    res.bytes_touched = stats.bytes_touched;
    res.agg_heavy = sql->find("GROUP BY") != std::string::npos;
    res.order_heavy = sql->find("ORDER BY") != std::string::npos;
    results.push_back(res);

    ClassTally& cls = by_class[res.query_class];
    ++cls.queries;
    cls.seconds += seconds;
    cls.rows += res.result_rows;
    ClassTally& flv = by_flavor[res.flavor];
    ++flv.queries;
    flv.seconds += seconds;
    flv.rows += res.result_rows;
  }

  std::printf("=== 99-Query Workload (SF %.3f, single stream) ===\n\n", sf);
  std::printf("%-16s %8s %10s %12s %14s\n", "class", "queries", "seconds",
              "avg ms", "result rows");
  for (const auto& [name, tally] : by_class) {
    std::printf("%-16s %8d %10.2f %12.1f %14lld\n", name.c_str(),
                tally.queries, tally.seconds,
                1000.0 * tally.seconds / tally.queries,
                static_cast<long long>(tally.rows));
  }
  std::printf("\n%-16s %8s %10s %12s %14s\n", "flavor", "queries",
              "seconds", "avg ms", "result rows");
  for (const auto& [name, tally] : by_flavor) {
    std::printf("%-16s %8d %10.2f %12.1f %14lld\n", name.c_str(),
                tally.queries, tally.seconds,
                1000.0 * tally.seconds / tally.queries,
                static_cast<long long>(tally.rows));
  }
  GroupTally agg = TallyGroup(results, &TemplateResult::agg_heavy);
  GroupTally order = TallyGroup(results, &TemplateResult::order_heavy);
  std::printf("\n%-16s %8s %10s %16s\n", "group", "queries", "seconds",
              "scan rows/sec");
  std::printf("%-16s %8d %10.2f %16.0f\n", "agg_heavy", agg.queries,
              agg.seconds, agg.RowsPerSec());
  std::printf("%-16s %8d %10.2f %16.0f\n", "order_by_heavy", order.queries,
              order.seconds, order.RowsPerSec());

  std::printf("\ntotal %.2f s for 99 queries; slowest q%02d at %.2f s\n",
              total, slowest_id, slowest);
  std::printf(
      "(data-mining extractions return large results by design; their\n"
      "output feeds external tools, paper §4.1)\n");

  // The join-heavy optimizer sample, median of interleaved passes.
  GroupTally opt = RunOptimizerSweep(db.get(), options);
  std::printf("\n%-16s %8s %10s %16s\n", "group", "queries", "seconds",
              "scan rows/sec");
  std::printf("%-16s %8d %10.3f %16.0f\n", "optimizer", opt.queries,
              opt.seconds, opt.RowsPerSec());

  // Cold-start comparison on a checkpoint of the loaded state: deep heap
  // load vs O(1) mmap attach, then interleaved 99-template sweeps against
  // each backing.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "bench_throughput_ckpt")
          .string();
  std::filesystem::remove_all(ckpt_dir);
  if (Status st = db->SaveCheckpoint(ckpt_dir); !st.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  auto [attach_heap, attach_mmap] = RunColdStarts(ckpt_dir, options);
  std::filesystem::remove_all(ckpt_dir);
  std::printf("\n%-16s %12s %10s %16s\n", "cold start", "open s",
              "query s", "scan rows/sec");
  std::printf("%-16s %12.6f %10.2f %16.0f\n", "heap load",
              attach_heap.open_seconds, attach_heap.seconds,
              attach_heap.RowsPerSec());
  std::printf("%-16s %12.6f %10.2f %16.0f\n", "mmap attach",
              attach_mmap.open_seconds, attach_mmap.seconds,
              attach_mmap.RowsPerSec());

  // Data-maintenance durability overhead: the same refresh cycle without
  // and through a WAL, each pass on a fresh fork of the loaded generation.
  auto [dm_off, dm_on] = RunMaintenancePair(*db, sf);
  std::printf("\n%-20s %6s %10s %16s\n", "maintenance", "ops", "seconds",
              "refresh rows/sec");
  std::printf("%-20s %6d %10.3f %16.0f\n", "wal_off", dm_off.ops,
              dm_off.seconds, dm_off.RowsPerSec());
  std::printf("%-20s %6d %10.3f %16.0f\n", "wal_on", dm_on.ops,
              dm_on.seconds, dm_on.RowsPerSec());

  // Concurrent service under saturation: 128 closed-loop sessions over
  // two worker slots, no query lost (the run aborts otherwise).
  ServiceTally svc = RunServiceConcurrent(*db, options);
  std::printf("\n=== concurrent query service (admission control) ===\n");
  std::printf("  %d sessions x %d statements over %d worker slots\n",
              svc.sessions, svc.statements / svc.sessions,
              svc.worker_slots);
  std::printf("  wall %.3f s, %.0f scanned rows/sec\n", svc.seconds,
              svc.RowsPerSec());
  std::printf("  latency p50 %.1f ms  p95 %.1f ms  p99 %.1f ms\n",
              svc.latency.p50_ms, svc.latency.p95_ms, svc.latency.p99_ms);
  std::printf("  peak queue %lld, peak running %lld, shed %lld, "
              "rejected %lld\n",
              static_cast<long long>(svc.counters.peak_queue_depth),
              static_cast<long long>(svc.counters.peak_running),
              static_cast<long long>(svc.counters.shed),
              static_cast<long long>(svc.counters.rejected_queue_full +
                                     svc.counters.rejected_deadline));

  // Workload-profile closed loops: the chaos-harness presets as standing
  // perf groups (skewed binds, reporting-heavy mix, iterative chains).
  std::vector<std::pair<std::string, ServiceTally>> profiles;
  for (const char* preset : {"hot-skew", "reporting", "chains"}) {
    Result<WorkloadProfile> wp = WorkloadProfile::Preset(preset);
    if (!wp.ok()) {
      std::fprintf(stderr, "profile bench: %s\n",
                   wp.status().ToString().c_str());
      std::exit(1);
    }
    std::string group = "profile_" + std::string(preset);
    std::replace(group.begin(), group.end(), '-', '_');
    profiles.emplace_back(group, RunProfileLoop(*db, options, *wp));
  }
  std::printf("\n=== workload profiles (closed loop, %d sessions) ===\n",
              profiles.front().second.sessions);
  std::printf("%-20s %10s %10s %16s %8s %8s\n", "profile", "stmts",
              "seconds", "scan rows/sec", "p50 ms", "p99 ms");
  for (const auto& [name, pt] : profiles) {
    std::printf("%-20s %10d %10.3f %16.0f %8.1f %8.1f\n", name.c_str(),
                pt.statements, pt.seconds, pt.RowsPerSec(),
                pt.latency.p50_ms, pt.latency.p99_ms);
  }

  if (json_path != nullptr) {
    WriteJson(json_path, sf, results, dm_off, dm_on, attach_heap,
              attach_mmap, svc, opt, profiles);
  }
}

}  // namespace
}  // namespace tpcds

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [-json <path>]\n", argv[0]);
      return 2;
    }
  }
  tpcds::Run(json_path);
  return 0;
}
