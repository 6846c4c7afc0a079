// Workload `refresh_read`: writes beside reads. One thread runs a fixed
// number of RunMaintenanceGeneration cycles through a WAL, paced evenly
// over the measured window and publishing each generation to a
// DataFacadeProvider. Meanwhile one generator thread submits hot-skew
// reads open loop, at a fixed rate below capacity, into a 2-slot
// QueryService. Afterwards Recover(checkpoint, WAL) must reproduce the
// live content hash.

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "driver/profile.h"
#include "engine/audit.h"
#include "engine/recovery.h"
#include "harness.h"
#include "maintenance/maintenance.h"
#include "qgen/qgen.h"
#include "service/service.h"
#include "templates/templates.h"
#include "util/wal.h"

namespace perfbench {

using tpcds::Status;

namespace {

constexpr int kSetupRepetitions = 3;
/// Open-loop arrival rate of the reads; the 2-slot service runs well
/// below saturation at this rate on a 4-core machine at SF 0.1.
constexpr double kReadsPerSecond = 10.0;
/// Refresh cycles per run, paced evenly over the window: every run
/// commits the same refresh sets, so recovery replays the same WAL.
constexpr int kRefreshCycles = 12;
constexpr int kWorkerSlots = 2;

struct Read {
  std::string sql;
  Clock::time_point due;
  Clock::time_point submitted;
  tpcds::QueryTicket ticket;
};

struct CycleResult {
  double seconds = 0.0;
  int64_t rows = 0;
  bool ok = true;
  std::string error;
};

/// Maps a maintenance operation name ("scd_update:item") to its kind.
std::string OpKind(const std::string& operation) {
  return operation.substr(0, operation.find(':'));
}

}  // namespace

Status RunRefreshRead(const Options& options, Tracer* tracer,
                      Report* report) {
  TPCDS_ASSIGN_OR_RETURN(
      PreparedDatabase prepared,
      PrepareDatabase(options, kSetupRepetitions, tracer, report));
  tpcds::Database* db = prepared.db.get();

  // The reads, generated before the window opens: whole stream
  // permutations of the 99 templates (every template equally often, so
  // the mix does not depend on the seed) with hot-skew binds.
  TPCDS_ASSIGN_OR_RETURN(tpcds::WorkloadProfile profile,
                         tpcds::WorkloadProfile::Preset("hot-skew"));
  const std::vector<tpcds::QueryTemplate>& templates = tpcds::AllTemplates();
  tpcds::QueryGenerator qgen(options.seed);
  int num_reads =
      std::max(1, static_cast<int>(options.seconds * kReadsPerSecond));
  std::vector<Read> reads(static_cast<size_t>(num_reads));
  std::vector<int> order;
  int stream = 0;
  for (size_t k = 0; k < reads.size(); ++k) {
    if (k % templates.size() == 0) {
      order = qgen.StreamPermutation(++stream, templates);
    }
    const tpcds::QueryTemplate& tmpl =
        templates[static_cast<size_t>(order[k % templates.size()])];
    ScopedSpan span(tracer, "qgen.instantiate", 0,
                    "read-" + std::to_string(k));
    TPCDS_ASSIGN_OR_RETURN(reads[k].sql,
                           qgen.Instantiate(tmpl, stream, 0, &profile.bind));
  }

  tpcds::DataFacadeProvider provider;
  provider.Publish(db->Snapshot());
  // Written by the refresh thread, read once it has been joined.
  std::set<uint64_t> published = {db->generation()};

  std::string wal_path = options.work_dir + "/refresh.wal";
  tpcds::WalWriter wal;
  TPCDS_RETURN_NOT_OK(wal.Open(wal_path));

  tpcds::ServiceConfig service_config;
  service_config.worker_slots = kWorkerSlots;
  std::vector<CycleResult> cycles(kRefreshCycles);
  std::vector<tpcds::MaintenanceReport> cycle_reports(kRefreshCycles);
  tpcds::ServiceCounters counters;
  {
    tpcds::QueryService service(service_config, &provider);
    tpcds::Session session = service.OpenSession();
    Clock::time_point start = Clock::now();
    auto at = [&](double offset_s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset_s));
    };
    // `db` belongs to the refresh thread until it is joined (jthread joins
    // on every exit path).
    std::jthread refresher([&] {
      double period = options.seconds / kRefreshCycles;
      for (int c = 0; c < kRefreshCycles; ++c) {
        std::this_thread::sleep_until(at(c * period));
        tpcds::MaintenanceOptions m;
        m.seed = options.seed;
        m.scale_factor = options.scale_factor;
        m.refresh_cycle = c + 1;
        m.refresh_fraction = 0.01;
        m.dimension_updates = 50;
        ScopedSpan span(tracer, "maintenance.cycle", 0,
                        "cycle-" + std::to_string(c + 1));
        Clock::time_point cycle_start = Clock::now();
        Status st = tpcds::RunMaintenanceGeneration(
            db, m, &cycle_reports[static_cast<size_t>(c)], &wal, &provider);
        CycleResult& r = cycles[static_cast<size_t>(c)];
        r.seconds = SecondsSince(cycle_start);
        r.rows = cycle_reports[static_cast<size_t>(c)].TotalRows();
        r.ok = st.ok();
        r.error = st.ToString();
        published.insert(db->generation());
      }
    });
    // Open loop: each read is submitted at its due time, whatever the
    // state of earlier ones.
    for (size_t k = 0; k < reads.size(); ++k) {
      Read& read = reads[k];
      read.due = at(static_cast<double>(k) / kReadsPerSecond);
      std::this_thread::sleep_until(read.due);
      read.submitted = Clock::now();
      read.ticket = session.Submit(read.sql);
    }
    for (Read& read : reads) read.ticket.Wait();
    refresher.join();
    counters = service.Counters();
  }
  TPCDS_RETURN_NOT_OK(wal.Close());

  // --- reads: latency from the due time, and the output checks ---------
  std::vector<double> latencies_ms, lag_ms, queue_ms, exec_ms;
  int64_t resolved = 0, rows_scanned = 0, result_rows = 0;
  if (options.tamper == "refresh-lost-ticket") reads.pop_back();
  for (size_t k = 0; k < reads.size(); ++k) {
    const Read& read = reads[k];
    ++report->attempted;
    double lag = std::chrono::duration<double, std::milli>(read.submitted -
                                                           read.due)
                     .count();
    lag_ms.push_back(lag);
    if (!read.ticket.Done()) continue;
    ++resolved;
    const tpcds::QueryOutcome& out = read.ticket.Wait();
    if (out.disposition != tpcds::QueryDisposition::kCompleted) {
      ++report->failed;
      continue;
    }
    uint64_t generation = out.generation;
    if (options.tamper == "refresh-generation" && k == 0) generation += 1000;
    if (published.count(generation) == 0) {
      report->Fail("refresh-generation",
                   "read " + std::to_string(k) + " saw generation " +
                       std::to_string(generation) +
                       ", which was never published");
    }
    latencies_ms.push_back(lag + out.total_ms);
    queue_ms.push_back(out.queue_ms);
    exec_ms.push_back(out.exec_ms);
    rows_scanned += out.rows_scanned;
    result_rows += static_cast<int64_t>(out.result.rows.size());
  }
  if (options.tamper == "refresh-counters") ++counters.completed;
  if (resolved != num_reads || counters.submitted != num_reads) {
    report->Fail("refresh-lost-ticket",
                 std::to_string(num_reads) + " reads submitted, " +
                     std::to_string(resolved) + " resolved, service counted " +
                     std::to_string(counters.submitted));
  }
  if (!counters.Balanced() || !counters.PoolDrained()) {
    report->Fail("refresh-counters",
                 "service counters do not balance: " + counters.ToString());
  }

  // --- refresh cycles ----------------------------------------------------
  int64_t refresh_rows = 0;
  double refresh_seconds = 0.0;
  std::vector<double> cycle_ms;
  std::map<std::string, double> op_seconds;
  for (size_t c = 0; c < cycles.size(); ++c) {
    ++report->attempted;
    if (!cycles[c].ok) {
      ++report->failed;
      report->Fail("refresh-cycle", "cycle " + std::to_string(c + 1) +
                                        " failed: " + cycles[c].error);
    }
    refresh_rows += cycles[c].rows;
    refresh_seconds += cycles[c].seconds;
    cycle_ms.push_back(cycles[c].seconds * 1e3);
    for (const tpcds::MaintenanceOpResult& op : cycle_reports[c].operations) {
      op_seconds[OpKind(op.operation)] += op.seconds;
    }
  }
  double rows_per_s =
      refresh_seconds > 0 ? static_cast<double>(refresh_rows) / refresh_seconds
                          : 0.0;

  // --- recovery: checkpoint + WAL must reproduce the live content --------
  double recovery_s = 0.0;
  tpcds::RecoveryReport recovery;
  {
    tpcds::Database recovered;
    {
      ScopedSpan span(tracer, "recovery.recover", 0);
      Clock::time_point rec_start = Clock::now();
      TPCDS_ASSIGN_OR_RETURN(
          recovery,
          tpcds::Recover(&recovered, prepared.checkpoint_dir, wal_path));
      recovery_s = SecondsSince(rec_start);
    }
    ScopedSpan verify(tracer, "recovery.verify", 0);
    uint64_t live = tpcds::HashDatabaseContent(*db);
    if (options.tamper == "refresh-hash") live ^= 1;
    if (tpcds::HashDatabaseContent(recovered) != live) {
      report->Fail("refresh-hash",
                   "recovered content hash differs from the live one");
    }
  }

  int64_t n = static_cast<int64_t>(latencies_ms.size());
  report->Add("setup_s", prepared.setup_seconds, "s", kSetupRepetitions);
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report->Add("query_p50_ms", Quantile(latencies_ms, 0.5), "ms", n);
  report->Add("query_p95_ms", Quantile(latencies_ms, 0.95), "ms", n);
  report->Add("refresh_rows_per_s", rows_per_s, "rows/s", kRefreshCycles);
  report->Add("recovery_s", recovery_s, "s", 1);
  report->Add("primary_s", rows_per_s > 0 ? 1e4 / rows_per_s : 0.0, "s",
              kRefreshCycles);
  report->Add("failed_frac",
              report->attempted > 0
                  ? static_cast<double>(report->failed) / report->attempted
                  : 0.0,
              "ratio", report->attempted);
  if (!tracer->enabled()) return Status::OK();

  ReportSetupLayers(*tracer, prepared.total_rows,
                    DirectoryBytes(prepared.checkpoint_dir), report);
  std::vector<double> qgen_s = tracer->SelfSecondsOf("qgen.instantiate");
  report->Add("qgen.instantiate_us.p50", Median(qgen_s) * 1e6, "us",
              static_cast<int64_t>(qgen_s.size()));
  report->Add("executor.exec_ms.p50", Quantile(exec_ms, 0.5), "ms", n);
  report->Add("executor.exec_ms.p95", Quantile(exec_ms, 0.95), "ms", n);
  report->Add("executor.rows_scanned", static_cast<double>(rows_scanned),
              "rows", n);
  report->Add("executor.result_rows", static_cast<double>(result_rows),
              "rows", n);
  report->Add("service.queue_ms.p50", Quantile(queue_ms, 0.5), "ms", n);
  report->Add("service.queue_ms.p95", Quantile(queue_ms, 0.95), "ms", n);
  report->Add("service.exec_ms.p50", Quantile(exec_ms, 0.5), "ms", n);
  report->Add("service.peak_queue_depth",
              static_cast<double>(counters.peak_queue_depth), "count", 1);
  report->Add("service.shed", static_cast<double>(counters.shed), "count", 1);
  report->Add("service.rejected",
              static_cast<double>(counters.rejected_queue_full +
                                  counters.rejected_deadline),
              "count", 1);
  std::vector<double> span_cycle_s =
      tracer->SelfSecondsOf("maintenance.cycle");
  std::vector<double> span_cycle_ms;
  for (double s : span_cycle_s) span_cycle_ms.push_back(s * 1e3);
  report->Add("maintenance.cycle_ms.p50", Median(span_cycle_ms), "ms",
              static_cast<int64_t>(span_cycle_ms.size()));
  report->Add("maintenance.rows", static_cast<double>(refresh_rows), "rows",
              kRefreshCycles);
  for (const char* kind :
       {"scd_update", "inplace_update", "fact_insert", "fact_delete"}) {
    report->Add(std::string("maintenance.op.") + kind + "_s",
                op_seconds[kind], "s", kRefreshCycles);
  }
  report->Add("wal.bytes_per_row",
              refresh_rows > 0
                  ? static_cast<double>(std::filesystem::file_size(wal_path)) /
                        static_cast<double>(refresh_rows)
                  : 0.0,
              "B/row", kRefreshCycles);
  // LoadCheckpoint timed on its own, so the replay share of Recover shows.
  double load_s = 0.0;
  {
    tpcds::Database loaded;
    ScopedSpan span(tracer, "recovery.checkpoint_load", 0);
    Clock::time_point load_start = Clock::now();
    TPCDS_RETURN_NOT_OK(loaded.LoadCheckpoint(prepared.checkpoint_dir));
    load_s = SecondsSince(load_start);
  }
  std::vector<double> verify_s = tracer->SelfSecondsOf("recovery.verify");
  report->Add("recovery.checkpoint_load_s", load_s, "s", 1);
  report->Add("recovery.replay_s", std::max(0.0, recovery_s - load_s), "s",
              1);
  report->Add("recovery.records_replayed",
              static_cast<double>(recovery.records_replayed), "count", 1);
  report->Add("recovery.verify_s", verify_s.empty() ? 0.0 : verify_s[0], "s",
              1);
  report->Add("loadgen.lag_p95_ms", Quantile(lag_ms, 0.95), "ms",
              static_cast<int64_t>(lag_ms.size()));
  return Status::OK();
}

}  // namespace perfbench
