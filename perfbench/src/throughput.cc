// Workload `throughput`: the paper's §5 execution through RunBenchmark —
// timed load -> Query Run 1 -> Data Maintenance -> Query Run 2 with two
// client streams through the 2-slot QueryService on heap storage — repeated
// until the window closes, reported as medians over the repetitions.

#include <string>
#include <vector>

#include "driver/driver.h"
#include "engine/audit.h"
#include "harness.h"
#include "metric/metric.h"
#include "schema/schema.h"

namespace perfbench {

using tpcds::Status;

namespace {

constexpr int kStreams = 2;

}  // namespace

Status RunThroughput(const Options& options, Tracer* tracer,
                     Report* report) {
  tpcds::BenchmarkConfig config;
  config.scale_factor = options.scale_factor;
  config.streams = kStreams;
  config.seed = options.seed;
  config.service_worker_slots = kStreams;

  std::vector<double> qphds, t_load, t_qr, t_dm, t_qr1, t_qr2, denominator;
  std::vector<double> latencies_ms, audit_s, queue_depth;
  int64_t retries = 0, dm_rows = 0, shed = 0, rejected = 0;
  double setup_s = 0.0;
  int reps = 0;
  Clock::time_point measure_start = Clock::now();
  while (reps == 0 || SecondsSince(measure_start) < options.seconds) {
    ++reps;
    tpcds::Database db;
    if (reps == 1) setup_s = SecondsSince(options.process_start);
    tpcds::BenchmarkResult r;
    {
      ScopedSpan span(tracer, "driver.run_benchmark", 0,
                      "rep-" + std::to_string(reps));
      TPCDS_ASSIGN_OR_RETURN(r, tpcds::RunBenchmark(config, &db));
    }
    if (options.tamper == "throughput-failures") {
      r.failures.failures.push_back(
          tpcds::QueryFailure{1, 1, 1, "qr1", "tampered"});
    }
    if (options.tamper == "throughput-counters") ++r.service.completed;
    if (options.tamper == "throughput-pool") r.service.pool_bytes_in_use = 1;
    if (!r.failures.empty()) {
      report->Fail("throughput-failures", r.failures.ToString());
    }
    if (!r.service.Balanced()) {
      report->Fail("throughput-counters",
                   "service counters do not balance: " +
                       r.service.ToString());
    }
    if (!r.service.PoolDrained()) {
      report->Fail("throughput-pool", "memory pool did not drain: " +
                                          r.service.ToString());
    }
    {
      ScopedSpan span(tracer, "storage.audit", 0);
      Clock::time_point audit_start = Clock::now();
      TPCDS_ASSIGN_OR_RETURN(
          tpcds::AuditReport audit,
          tpcds::ValidateConstraints(&db, tpcds::TpcdsSchema()));
      audit_s.push_back(SecondsSince(audit_start));
      int64_t violations = audit.TotalViolations();
      if (options.tamper == "throughput-audit") ++violations;
      if (violations != 0) {
        report->Fail("throughput-audit",
                     std::to_string(violations) +
                         " constraint violation(s) after the run");
      }
    }
    tpcds::MetricInputs in = r.ToMetricInputs();
    qphds.push_back(tpcds::QphDs(in));
    denominator.push_back(in.t_qr1_sec + in.t_dm_sec + in.t_qr2_sec +
                          0.01 * in.streams * in.t_load_sec);
    t_load.push_back(r.t_load_sec);
    t_qr.push_back(r.t_qr1_sec + r.t_qr2_sec);
    t_dm.push_back(r.t_dm_sec);
    t_qr1.push_back(r.t_qr1_sec);
    t_qr2.push_back(r.t_qr2_sec);
    latencies_ms.insert(latencies_ms.end(), r.service_latencies_ms.begin(),
                        r.service_latencies_ms.end());
    queue_depth.push_back(static_cast<double>(r.service.peak_queue_depth));
    retries += r.failures.total_retries;
    dm_rows += r.dm_report.TotalRows();
    shed += r.service.shed;
    rejected += r.service.rejected_queue_full + r.service.rejected_deadline;
    int64_t failed = static_cast<int64_t>(r.failures.failures.size());
    report->attempted += static_cast<int64_t>(r.qr1_queries.size() +
                                              r.qr2_queries.size()) +
                         failed + 1;  // + the data-maintenance run
    report->failed += failed;
  }

  int64_t n = static_cast<int64_t>(latencies_ms.size());
  report->Add("setup_s", setup_s, "s", 1);
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report->Add("query_p50_ms", Quantile(latencies_ms, 0.5), "ms", n);
  report->Add("query_p95_ms", Quantile(latencies_ms, 0.95), "ms", n);
  report->Add("qphds", Median(qphds), "QphDS@SF", reps);
  report->Add("t_load_s", Median(t_load), "s", reps);
  report->Add("t_qr_s", Median(t_qr), "s", reps);
  report->Add("t_dm_s", Median(t_dm), "s", reps);
  report->Add("primary_s", Median(denominator), "s", reps);
  report->Add("failed_frac",
              report->attempted > 0
                  ? static_cast<double>(report->failed) / report->attempted
                  : 0.0,
              "ratio", report->attempted);
  if (!tracer->enabled()) return Status::OK();

  report->Add("storage.audit_s", Median(audit_s), "s", reps);
  report->Add("driver.t_qr1_s", Median(t_qr1), "s", reps);
  report->Add("driver.t_qr2_s", Median(t_qr2), "s", reps);
  report->Add("driver.retries", static_cast<double>(retries), "count", reps);
  report->Add("service.peak_queue_depth", Quantile(queue_depth, 1.0), "count",
              reps);
  report->Add("service.shed", static_cast<double>(shed), "count", reps);
  report->Add("service.rejected", static_cast<double>(rejected), "count",
              reps);
  report->Add("maintenance.rows", static_cast<double>(dm_rows), "rows", reps);
  return Status::OK();
}

}  // namespace perfbench
