// Workload `power`: one closed-loop client, no service, no writes. The 99
// templates of a fixed set of streams run over interleaved passes on an
// mmap-attached checkpoint; the first pass is an untimed warm-up that also
// records every statement's reference result digest.

#include <array>
#include <map>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/parser.h"
#include "engine/plan.h"
#include "harness.h"
#include "qgen/qgen.h"
#include "templates/templates.h"

namespace perfbench {

using tpcds::Status;

namespace {

constexpr int kSetupRepetitions = 3;
constexpr std::array<int, 2> kStreams = {1, 2};

/// Operator kinds the per-layer table splits executor self time into.
const std::vector<std::pair<std::string, std::string>>& OperatorKinds() {
  // Label prefix (engine/plan.cc PlanNodeLabel) -> metric suffix.
  static const std::vector<std::pair<std::string, std::string>> kinds = {
      {"scan ", "scan"},          {"star semi-join", "star_semijoin"},
      {"hash join", "hash_join"}, {"nested-loop join", "hash_join"},
      {"index join", "index_join"}, {"filter", "filter"},
      {"aggregate", "aggregate"}, {"window", "window"},
      {"project", "project"},     {"sort", "sort"},
      {"top-k", "topk"},          {"set op", "set_op"},
  };
  return kinds;
}

std::string OperatorKind(const std::string& label) {
  for (const auto& [prefix, kind] : OperatorKinds()) {
    if (label.rfind(prefix, 0) == 0) return kind;
  }
  return "other";
}

struct Statement {
  int template_id = 0;
  int stream = 0;
  std::string sql;
  uint64_t reference_digest = 0;
  std::vector<double> seconds;  // call time per timed pass

  std::string Name() const {
    return "q" + std::to_string(template_id) + "/s" + std::to_string(stream);
  }
};

/// Executor counters summed over the timed passes (traced runs only).
struct ExecTotals {
  std::map<std::string, double> op_seconds;
  int64_t rows_scanned = 0;
  int64_t bytes_touched = 0;
  int64_t morsels_pruned = 0;
  int64_t bloom_rejects = 0;
  int64_t topk_seen = 0;
  int64_t topk_kept = 0;
  int64_t result_rows = 0;
  std::vector<double> q_errors;

  void Add(const tpcds::ExecStats& stats, int64_t rows) {
    for (const tpcds::ExecStats::OpStat& op : stats.operators) {
      if (op.executed) op_seconds[OperatorKind(op.label)] += op.seconds;
    }
    rows_scanned += stats.rows_scanned;
    bytes_touched += stats.bytes_touched;
    morsels_pruned += stats.morsels_pruned;
    bloom_rejects += stats.bloom_rejects;
    topk_seen += stats.topk_seen;
    topk_kept += stats.topk_kept;
    result_rows += rows;
    if (stats.max_q_error > 0) q_errors.push_back(stats.max_q_error);
  }
};

/// Parse -> plan -> execute one statement, each under a span. Returns the
/// call time and fills `digest`.
tpcds::Result<double> RunStatement(const tpcds::DataFacade* facade,
                                   const tpcds::PlannerOptions& planner,
                                   const Statement& st, const char* root_name,
                                   int pass, Tracer* tracer,
                                   tpcds::ExecStats* stats, uint64_t* digest,
                                   int64_t* rows) {
  ScopedSpan root(tracer, root_name, 0,
                  st.Name() + "/p" + std::to_string(pass));
  Clock::time_point start = Clock::now();
  std::shared_ptr<tpcds::SelectStmt> stmt;
  {
    ScopedSpan span(tracer, "parser.parse", root.id());
    TPCDS_ASSIGN_OR_RETURN(stmt, tpcds::ParseSql(st.sql));
  }
  tpcds::PhysicalPlan plan;
  {
    ScopedSpan span(tracer, "plan.build", root.id());
    TPCDS_ASSIGN_OR_RETURN(plan, tpcds::BuildPlan(facade, *stmt, planner));
  }
  std::shared_ptr<tpcds::RowSet> result;
  {
    ScopedSpan span(tracer, "executor.exec", root.id());
    TPCDS_ASSIGN_OR_RETURN(
        result, tpcds::ExecutePlan(facade, plan, planner, stats));
  }
  double seconds = SecondsSince(start);
  *digest = DigestRows(result->rows);
  *rows = static_cast<int64_t>(result->rows.size());
  return seconds;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

}  // namespace

Status RunPower(const Options& options, Tracer* tracer, Report* report) {
  TPCDS_ASSIGN_OR_RETURN(
      PreparedDatabase prepared,
      PrepareDatabase(options, kSetupRepetitions, tracer, report));
  std::shared_ptr<const tpcds::DataFacade> facade = prepared.db->Snapshot();
  const tpcds::PlannerOptions planner;  // the defaults, as users get them

  // The benchmark generates the SQL; the engine only ever sees the text.
  const std::vector<tpcds::QueryTemplate>& templates = tpcds::AllTemplates();
  tpcds::QueryGenerator qgen(options.seed);
  std::vector<Statement> statements;
  for (int stream : kStreams) {
    for (int index : qgen.StreamPermutation(stream, templates)) {
      const tpcds::QueryTemplate& tmpl = templates[static_cast<size_t>(index)];
      Statement st;
      st.template_id = tmpl.id;
      st.stream = stream;
      ScopedSpan span(tracer, "qgen.instantiate", 0, st.Name());
      TPCDS_ASSIGN_OR_RETURN(st.sql, qgen.Instantiate(tmpl, stream));
      statements.push_back(std::move(st));
    }
  }

  // Warm-up pass (untimed, part of set-up): pages the mapped columns in,
  // builds lazy derived state, and records the reference digests.
  Clock::time_point warmup_start = Clock::now();
  for (Statement& st : statements) {
    ++report->attempted;
    int64_t rows = 0;
    tpcds::Result<double> r =
        RunStatement(facade.get(), planner, st, "statement.warmup", 0, tracer,
                     nullptr, &st.reference_digest, &rows);
    if (!r.ok()) {
      ++report->failed;
      report->Fail("power-statement",
                   st.Name() + " failed: " + r.status().ToString());
    }
  }
  double warmup_seconds = SecondsSince(warmup_start);
  if (options.tamper == "power-digest") statements[0].reference_digest ^= 1;

  // Timed passes: every statement once per pass, in the same order, so a
  // statement's repeats are a whole pass apart.
  ExecTotals totals;
  std::vector<double> latencies_ms;
  int passes = 0;
  Clock::time_point measure_start = Clock::now();
  while (passes == 0 || SecondsSince(measure_start) < options.seconds) {
    ++passes;
    for (Statement& st : statements) {
      ++report->attempted;
      tpcds::ExecStats stats;
      uint64_t digest = 0;
      int64_t rows = 0;
      tpcds::Result<double> r = RunStatement(
          facade.get(), planner, st, "statement", passes, tracer,
          tracer->enabled() ? &stats : nullptr, &digest, &rows);
      if (!r.ok()) {
        ++report->failed;
        report->Fail("power-statement",
                     st.Name() + " failed: " + r.status().ToString());
        continue;
      }
      if (digest != st.reference_digest) {
        report->Fail("power-digest",
                     st.Name() + " result digest changed in pass " +
                         std::to_string(passes));
      }
      st.seconds.push_back(*r);
      latencies_ms.push_back(*r * 1e3);
      if (tracer->enabled()) totals.Add(stats, rows);
    }
  }

  // power_stream_s: per (template, stream) the median over passes, summed
  // and divided by the number of streams.
  double stream_s = 0.0;
  for (const Statement& st : statements) stream_s += Median(st.seconds);
  stream_s /= static_cast<double>(kStreams.size());
  int64_t n = static_cast<int64_t>(latencies_ms.size());

  report->Add("setup_s", prepared.setup_seconds + warmup_seconds, "s",
              kSetupRepetitions);
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report->Add("query_p50_ms", Quantile(latencies_ms, 0.5), "ms", n);
  report->Add("query_p95_ms", Quantile(latencies_ms, 0.95), "ms", n);
  report->Add("power_stream_s", stream_s, "s", n);
  report->Add("primary_s", stream_s, "s", n);
  report->Add("failed_frac",
              report->attempted > 0
                  ? static_cast<double>(report->failed) / report->attempted
                  : 0.0,
              "ratio", report->attempted);
  report->Add("power.passes", passes, "count", 1);
  if (!tracer->enabled()) return Status::OK();

  // Per-layer metrics, derived from the spans (self times) and from the
  // executor's own per-operator accounting.
  ReportSetupLayers(*tracer, prepared.total_rows,
                    DirectoryBytes(prepared.checkpoint_dir), report);
  std::vector<double> qgen_s = tracer->SelfSecondsOf("qgen.instantiate");
  report->Add("qgen.instantiate_us.p50", Median(qgen_s) * 1e6, "us",
              static_cast<int64_t>(qgen_s.size()));
  std::vector<double> parse_s =
      tracer->SelfSecondsOf("parser.parse", "statement");
  std::vector<double> plan_s = tracer->SelfSecondsOf("plan.build", "statement");
  std::vector<double> exec_s =
      tracer->SelfSecondsOf("executor.exec", "statement");
  std::vector<double> warm_exec_s =
      tracer->SelfSecondsOf("executor.exec", "statement.warmup");
  auto count = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  double per_pass = 1.0 / passes;
  report->Add("parser.parse_us.p50", Median(parse_s) * 1e6, "us",
              count(parse_s));
  report->Add("plan.build_us.p50", Median(plan_s) * 1e6, "us", count(plan_s));
  report->Add("plan.build_s", Sum(plan_s) * per_pass, "s", count(plan_s));
  report->Add("plan.q_error.p50", Median(totals.q_errors), "ratio",
              count(totals.q_errors));
  report->Add("plan.q_error.max", Quantile(totals.q_errors, 1.0), "ratio",
              count(totals.q_errors));
  report->Add("executor.exec_s", Sum(exec_s) * per_pass, "s", count(exec_s));
  std::vector<double> exec_ms;
  for (double s : exec_s) exec_ms.push_back(s * 1e3);
  report->Add("executor.exec_ms.p50", Quantile(exec_ms, 0.5), "ms",
              count(exec_ms));
  report->Add("executor.exec_ms.p95", Quantile(exec_ms, 0.95), "ms",
              count(exec_ms));
  report->Add("executor.warmup_s", Sum(warm_exec_s), "s", count(warm_exec_s));
  std::vector<std::string> kinds;
  for (const auto& [prefix, kind] : OperatorKinds()) {
    if (kinds.empty() || kinds.back() != kind) kinds.push_back(kind);
  }
  kinds.push_back("other");
  for (const std::string& kind : kinds) {
    report->Add("executor.op." + kind + "_s",
                totals.op_seconds[kind] * per_pass, "s", count(exec_s));
  }
  report->Add("executor.rows_scanned", totals.rows_scanned * per_pass,
              "rows", passes);
  report->Add("executor.bytes_touched", totals.bytes_touched * per_pass, "B",
              passes);
  report->Add("executor.morsels_pruned", totals.morsels_pruned * per_pass,
              "count", passes);
  report->Add("executor.bloom_rejects", totals.bloom_rejects * per_pass,
              "count", passes);
  report->Add("executor.topk_kept_frac",
              totals.topk_seen > 0 ? static_cast<double>(totals.topk_kept) /
                                         static_cast<double>(totals.topk_seen)
                                   : 0.0,
              "ratio", passes);
  report->Add("executor.result_rows", totals.result_rows * per_pass, "rows",
              passes);
  return Status::OK();
}

}  // namespace perfbench
