// sql_shell: an interactive SQL shell over a generated TPC-DS database —
// type SELECT statements against the 24-table snowstorm schema.
//
//   ./examples/sql_shell [scale_factor]
//
// Meta commands: \tables, \d <table>, \parallel <threads>,
// \timeout <ms>, \membudget <mb>, \service <slots>, \q
// EXPLAIN <select> prints the physical operator tree with per-operator
// row counts and self times instead of the result rows.
//
// \service N routes every following statement through an in-process
// QueryService with N worker slots (admission control, docs/SERVICE.md)
// and prints the admission outcome — admitted / queued X ms / shed /
// rejected — next to each result. \service 0 goes back to direct
// execution. Under the service, \parallel 0 means each worker slot's
// share of the cores.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "engine/database.h"
#include "service/service.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

void DescribeTable(const tpcds::Database& db, const std::string& name) {
  const tpcds::EngineTable* table = db.FindTable(name);
  if (table == nullptr) {
    std::printf("no such table: %s\n", name.c_str());
    return;
  }
  std::printf("%s (%lld rows)\n", name.c_str(),
              static_cast<long long>(table->num_rows()));
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const tpcds::EngineTable::ColumnMeta& meta = table->column_meta(c);
    std::printf("  %-28s %s\n", meta.name.c_str(),
                tpcds::ColumnTypeToString(meta.type));
  }
}

}  // namespace

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::strtod(argv[1], nullptr) : 0.01;
  tpcds::Database db;
  tpcds::Status st = db.CreateTpcdsTables();
  if (st.ok()) {
    tpcds::GeneratorOptions options;
    options.scale_factor = sf;
    std::printf("loading TPC-DS at SF %.3f ...\n", sf);
    st = db.LoadTpcdsData(options);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%lld rows loaded. \\tables lists tables, \\d TABLE "
              "describes one, \\parallel N sets threads per query "
              "(default 0 = all cores), \\timeout MS sets a query "
              "deadline, \\membudget MB sets a "
              "query memory budget (0 = unlimited), \\service N routes "
              "statements through a query service with N worker slots "
              "(0 = direct), \\q quits.\n",
              static_cast<long long>(db.TotalRows()));

  // Non-null while \service is on: statements go through its admission
  // control instead of straight to db.Query. The service pins a snapshot
  // and the session options current at \service time.
  std::unique_ptr<tpcds::QueryService> service;
  std::string buffer;
  std::string line;
  std::printf("tpcds> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(tpcds::Trim(line));
    if (trimmed == "\\q" || trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "\\tables") {
      for (const std::string& name : db.TableNames()) {
        std::printf("  %-24s %12lld rows\n", name.c_str(),
                    static_cast<long long>(db.FindTable(name)->num_rows()));
      }
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    if (tpcds::StartsWith(trimmed, "\\d ")) {
      DescribeTable(db, std::string(tpcds::Trim(trimmed.substr(3))));
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    if (tpcds::StartsWith(trimmed, "\\parallel")) {
      std::string arg(tpcds::Trim(trimmed.substr(9)));
      if (arg.empty() ||
          arg.find_first_not_of("0123456789") != std::string::npos) {
        std::printf("usage: \\parallel N   (N threads per query; 0 = all "
                    "cores, the default; 1 = serial)\n");
        std::printf("tpcds> ");
        std::fflush(stdout);
        continue;
      }
      int workers = std::atoi(arg.c_str());
      db.default_options().parallelism = workers;
      std::printf("parallelism = %d%s\n", workers,
                  workers == 0 ? " (all hardware cores)" : "");
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    if (tpcds::StartsWith(trimmed, "\\timeout")) {
      std::string arg(tpcds::Trim(trimmed.substr(8)));
      char* end = nullptr;
      double ms = std::strtod(arg.c_str(), &end);
      if (arg.empty() || end == arg.c_str() || ms < 0.0) {
        std::printf("usage: \\timeout MS   (wall-clock deadline per query; "
                    "0 = unlimited)\n");
      } else {
        db.default_options().timeout_ms = ms;
        std::printf(ms == 0.0 ? "timeout unlimited\n" : "timeout = %.3f ms\n",
                    ms);
      }
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    if (tpcds::StartsWith(trimmed, "\\service")) {
      std::string arg(tpcds::Trim(trimmed.substr(8)));
      if (arg.empty() ||
          arg.find_first_not_of("0123456789") != std::string::npos) {
        std::printf("usage: \\service N   (worker slots; 0 = direct "
                    "execution, no service)\n");
      } else if (int slots = std::atoi(arg.c_str()); slots == 0) {
        service.reset();
        std::printf("service off: statements run directly\n");
      } else {
        tpcds::ServiceConfig svc;
        svc.worker_slots = slots;
        svc.planner = db.default_options();
        svc.default_limits.timeout_ms = db.default_options().timeout_ms;
        svc.default_limits.memory_budget_bytes =
            db.default_options().memory_budget_bytes;
        service = std::make_unique<tpcds::QueryService>(svc, db);
        std::printf("service on: %d worker slot%s, queue depth %zu "
                    "(snapshot + current options pinned; \\service 0 to "
                    "go direct)\n",
                    slots, slots == 1 ? "" : "s", svc.max_queue_depth);
      }
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    if (tpcds::StartsWith(trimmed, "\\membudget")) {
      std::string arg(tpcds::Trim(trimmed.substr(10)));
      char* end = nullptr;
      double mb = std::strtod(arg.c_str(), &end);
      if (arg.empty() || end == arg.c_str() || mb < 0.0) {
        std::printf("usage: \\membudget MB   (materialised-bytes budget per "
                    "query; 0 = unlimited)\n");
      } else {
        db.default_options().memory_budget_bytes =
            static_cast<int64_t>(mb * 1024.0 * 1024.0);
        std::printf(mb == 0.0 ? "memory budget unlimited\n"
                              : "memory budget = %.1f MB\n",
                    mb);
      }
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    buffer += line + "\n";
    // Execute once the statement is terminated by ';'.
    if (trimmed.empty() || trimmed.back() != ';') {
      std::printf("   ...> ");
      std::fflush(stdout);
      continue;
    }
    // EXPLAIN prefix: print the plan trace instead of results.
    std::string statement(tpcds::Trim(buffer));
    if (tpcds::EqualsIgnoreCase(statement.substr(0, 8), "explain ")) {
      tpcds::Result<std::string> plan = db.Explain(statement.substr(8));
      buffer.clear();
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      } else {
        std::printf("%s", plan->c_str());
      }
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    tpcds::Stopwatch timer;
    if (service != nullptr) {
      tpcds::QueryOutcome out = service->OpenSession().Execute(buffer);
      buffer.clear();
      if (out.waited_in_queue) {
        std::printf("[service: queued %.1f ms, then %s]\n", out.queue_ms,
                    tpcds::QueryDispositionToString(out.disposition));
      } else {
        std::printf("[service: %s]\n",
                    tpcds::QueryDispositionToString(out.disposition));
      }
      if (out.disposition != tpcds::QueryDisposition::kCompleted) {
        std::printf("error: %s\n", out.status.ToString().c_str());
      } else {
        std::printf("%s(%zu rows, %.3f s total, %.3f s exec)\n",
                    out.result.ToString(40).c_str(), out.result.rows.size(),
                    timer.ElapsedSeconds(), out.exec_ms / 1000.0);
      }
      std::printf("tpcds> ");
      std::fflush(stdout);
      continue;
    }
    tpcds::Result<tpcds::QueryResult> result = db.Query(buffer);
    buffer.clear();
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
    } else {
      std::printf("%s(%zu rows, %.3f s)\n",
                  result->ToString(40).c_str(), result->rows.size(),
                  timer.ElapsedSeconds());
    }
    std::printf("tpcds> ");
    std::fflush(stdout);
  }
  return 0;
}
