#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the perfbench harness: run options, the metric report,
// output checks, the span tracer, and the untimed set-up every
// checkpoint-based workload starts from. See perfbench/README.md.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/database.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 19620718;
  double seconds = 10.0;
  bool trace = false;
  double scale_factor = 0.1;
  /// Scratch space for checkpoints and the WAL (removed at exit).
  std::string work_dir;
  /// Where the span file and the run summary are written.
  std::string out_dir;
  /// Output check to sabotage on purpose (the benchmark's own tests use
  /// this to show each check trips); empty = none.
  std::string tamper;
  std::string commit = "unknown";
  /// When the process started (the throughput workload's set-up ends
  /// where its first timed load begins).
  Clock::time_point process_start = Clock::now();
};

/// Metrics of one run plus the output-check verdicts. Every metric is
/// printed by name with its unit and sample count; failed checks are
/// printed with their name and make the run exit non-zero.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  /// Records a failed output check: `check` names it, `message` says what
  /// differed.
  void Fail(const std::string& check, const std::string& message);
  bool correct() const { return failures_.empty(); }

  /// Statements and maintenance cycles attempted / failed (failed_frac).
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Human-readable lines, then one JSON object as the last line.
  void Print(const std::string& fingerprint_json) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Order-sensitive FNV-1a digest of a result's rows (display strings of
/// every value, with row and column separators).
uint64_t DigestRows(const std::vector<std::vector<tpcds::Value>>& rows);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// One span: a timed call into a layer. `parent` is 0 for a root span;
/// `tag` names the statement, cycle or set-up repetition it belongs to.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  std::string tag;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Collects spans in memory (thread-safe) and writes them out at the end.
/// Disabled tracers record nothing; every ScopedSpan on them is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  int64_t NowNs() const;
  int64_t NextId();
  void Record(Span span);

  /// Snapshot of every recorded span.
  std::vector<Span> Spans() const;
  /// Self time per span id: duration minus the part of its interval that
  /// its child spans cover.
  std::map<int64_t, double> SelfSeconds() const;
  /// Self times of every span called `name` (and, when `parent_name` is
  /// given, whose parent span is called that).
  std::vector<double> SelfSecondsOf(const std::string& name,
                                    const std::string& parent_name = "") const;
  /// Writes `{"fingerprint": ...}`, then one JSON object per span, to
  /// `path`.
  tpcds::Status WriteJsonLines(const std::string& path,
                               const std::string& fingerprint_json) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int64_t next_id_ = 1;      // guarded by mu_
};

/// Times one layer call as a span for its scope's lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             std::string tag = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off), for child spans.
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// The prepared database a checkpoint-based workload runs on: the
/// generated data, checked, analyzed, checkpointed and mmap-attached.
struct PreparedDatabase {
  std::unique_ptr<tpcds::Database> db;  // attached to `checkpoint_dir`
  std::string checkpoint_dir;
  int64_t total_rows = 0;
  /// Median wall time of one set-up repetition.
  double setup_seconds = 0.0;
};

/// Runs the set-up `repetitions` times (dsgen -> ValidateConstraints ->
/// AnalyzeStorage -> SaveCheckpoint -> AttachCheckpoint, each under a
/// span) and keeps the last repetition's database. A constraint violation
/// in the generated data fails the "setup-audit" check.
tpcds::Result<PreparedDatabase> PrepareDatabase(const Options& options,
                                                int repetitions,
                                                Tracer* tracer,
                                                Report* report);

/// Per-layer set-up metrics (dsgen.*, storage.*) from the set-up spans.
void ReportSetupLayers(const Tracer& tracer, int64_t total_rows,
                       uint64_t checkpoint_bytes, Report* report);

/// Total size of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// The workloads. Each fills `report`; a returned error is a harness
/// failure (the run prints no result).
tpcds::Status RunPower(const Options& options, Tracer* tracer,
                       Report* report);
tpcds::Status RunRefreshRead(const Options& options, Tracer* tracer,
                             Report* report);
tpcds::Status RunThroughput(const Options& options, Tracer* tracer,
                            Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
