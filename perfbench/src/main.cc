// perfbench: the repository benchmark harness. Runs one workload
// (power, refresh_read or throughput) at a given seed for a given time,
// checks the engine's outputs, and prints every metric by name with its
// unit and sample count; the last line is one JSON object. Normally
// started through perfbench/run.py, which builds it first.
//
//   perfbench --workload power --seed 19620718 --seconds 20 --trace 0
//             [--sf 0.1] [--work-dir DIR] [--out-dir DIR] [--tamper CHECK]
//             [--commit SHA]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload power|refresh_read|throughput "
               "--seed N --seconds S --trace 0|1 [--sf SF] [--work-dir DIR] "
               "[--out-dir DIR] [--tamper CHECK] [--commit SHA]\n",
               error.c_str());
  std::exit(2);
}

/// Output checks the benchmark's own tests may sabotage, one per check.
const std::set<std::string>& TamperableChecks() {
  static const std::set<std::string> checks = {
      "power-digest",         "refresh-lost-ticket", "refresh-counters",
      "refresh-generation",   "refresh-hash",        "throughput-failures",
      "throughput-counters",  "throughput-pool",     "throughput-audit",
  };
  return checks;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--sf") {
      o.scale_factor = std::strtod(value.c_str(), &end);
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--tamper") {
      o.tamper = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + flag);
  }
  if (!have_workload) Usage("--workload is required");
  if (o.workload != "power" && o.workload != "refresh_read" &&
      o.workload != "throughput") {
    Usage("unknown workload " + o.workload);
  }
  if (o.seconds <= 0 || o.scale_factor <= 0) {
    Usage("--seconds and --sf must be positive");
  }
  if (!o.tamper.empty() && TamperableChecks().count(o.tamper) == 0) {
    Usage("unknown check for --tamper: " + o.tamper);
  }
  std::string run_id = o.workload + "-seed" + std::to_string(o.seed) +
                       "-trace" + (o.trace ? "1" : "0") + "-" +
                       std::to_string(getpid());
  if (o.work_dir.empty()) o.work_dir = ".bench_build/perfbench-work/" + run_id;
  if (o.out_dir.empty()) o.out_dir = ".bench_build/perfbench-out";
  return o;
}

std::string Fingerprint(const Options& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"sf\": %g, "
                "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"commit\": \"%s\", \"seconds\": %g, \"trace\": %d}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.scale_factor, std::thread::hardware_concurrency(),
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                PERFBENCH_BUILD_TYPE, o.commit.c_str(), o.seconds,
                o.trace ? 1 : 0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  std::string fingerprint = Fingerprint(options);
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  tpcds::Status status =
      options.workload == "power"
          ? perfbench::RunPower(options, &tracer, &report)
      : options.workload == "refresh_read"
          ? perfbench::RunRefreshRead(options, &tracer, &report)
          : perfbench::RunThroughput(options, &tracer, &report);
  std::filesystem::remove_all(options.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: harness error: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  if (tracer.enabled()) {
    std::string path = options.out_dir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed) + "-" +
                       std::to_string(getpid()) + ".spans.jsonl";
    tpcds::Status written = tracer.WriteJsonLines(path, fingerprint);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  report.Print(fingerprint);
  return report.correct() ? 0 : 1;
}
