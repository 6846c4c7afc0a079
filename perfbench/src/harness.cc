#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "engine/audit.h"
#include "schema/schema.h"

namespace perfbench {

using tpcds::Status;

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Fail(const std::string& check, const std::string& message) {
  failures_.push_back(check + ": " + message);
}

void Report::Print(const std::string& fingerprint_json) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %14.6f %-9s n=%" PRId64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::printf("attempted %" PRId64 " failed %" PRId64 " failed_frac %.6f\n",
              attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED %s\n", f.c_str());
    std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
            FormatNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}, \"fingerprint\": " + fingerprint_json + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the mass at or
  // below it.
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) +
                                    0.999999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

uint64_t DigestRows(const std::vector<std::vector<tpcds::Value>>& rows) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& row : rows) {
    for (const tpcds::Value& v : row) {
      mix(v.ToDisplayString());
      mix("\x1f");
    }
    mix("\x1e");
  }
  return h;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<int64_t, double> Tracer::SelfSeconds() const {
  std::vector<Span> spans = Spans();
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<int64_t, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent's interval.
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = 0, cur_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    self[s.id] = (s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::vector<double> Tracer::SelfSecondsOf(
    const std::string& name, const std::string& parent_name) const {
  std::vector<Span> spans = Spans();
  std::map<int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<int64_t, double> self = SelfSeconds();
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (!parent_name.empty()) {
      auto parent = by_id.find(s.parent);
      if (parent == by_id.end() || parent->second->name != parent_name) {
        continue;
      }
    }
    out.push_back(self[s.id]);
  }
  return out;
}

Status Tracer::WriteJsonLines(const std::string& path,
                              const std::string& fingerprint_json) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write span file " + path);
  out << "{\"fingerprint\": " << fingerprint_json << "}\n";
  for (const Span& s : Spans()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << JsonEscape(s.name) << "\", \"tag\": \""
        << JsonEscape(s.tag) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  out.close();
  if (!out) return Status::IoError("short write to span file " + path);
  return Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
                       std::string tag)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.name = name;
  span_.tag = std::move(tag);
  span_.start_ns = tracer_->NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  tracer_->Record(std::move(span_));
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

tpcds::Result<PreparedDatabase> PrepareDatabase(const Options& options,
                                                int repetitions,
                                                Tracer* tracer,
                                                Report* report) {
  PreparedDatabase prepared;
  std::vector<double> rep_seconds;
  for (int rep = 0; rep < repetitions; ++rep) {
    std::string dir = options.work_dir + "/ckpt-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    Clock::time_point start = Clock::now();
    ScopedSpan root(tracer, "setup.rep", 0, "rep-" + std::to_string(rep));
    auto db = std::make_unique<tpcds::Database>();
    {
      ScopedSpan span(tracer, "dsgen.load", root.id());
      TPCDS_RETURN_NOT_OK(db->CreateTpcdsTables());
      tpcds::GeneratorOptions gen;
      gen.scale_factor = options.scale_factor;
      gen.master_seed = options.seed;
      TPCDS_RETURN_NOT_OK(db->LoadTpcdsData(gen));
    }
    {
      ScopedSpan span(tracer, "storage.audit", root.id());
      TPCDS_ASSIGN_OR_RETURN(
          tpcds::AuditReport audit,
          tpcds::ValidateConstraints(db.get(), tpcds::TpcdsSchema()));
      if (audit.TotalViolations() != 0) {
        report->Fail("setup-audit", "generated data violates " +
                                        std::to_string(
                                            audit.TotalViolations()) +
                                        " constraint(s)");
      }
    }
    {
      ScopedSpan span(tracer, "storage.analyze", root.id());
      db->AnalyzeStorage();
    }
    {
      ScopedSpan span(tracer, "storage.checkpoint_save", root.id());
      TPCDS_RETURN_NOT_OK(db->SaveCheckpoint(dir));
    }
    prepared.total_rows = db->TotalRows();
    db.reset();  // the workload runs on the attached copy
    auto attached = std::make_unique<tpcds::Database>();
    {
      ScopedSpan span(tracer, "storage.attach", root.id());
      TPCDS_RETURN_NOT_OK(attached->AttachCheckpoint(dir));
    }
    rep_seconds.push_back(SecondsSince(start));
    if (rep + 1 < repetitions) {
      attached.reset();
      std::filesystem::remove_all(dir);
    } else {
      prepared.db = std::move(attached);
      prepared.checkpoint_dir = dir;
    }
  }
  prepared.setup_seconds = Median(rep_seconds);
  return prepared;
}

void ReportSetupLayers(const Tracer& tracer, int64_t total_rows,
                       uint64_t checkpoint_bytes, Report* report) {
  auto median_of = [&](const char* name) {
    std::vector<double> v = tracer.SelfSecondsOf(name);
    return std::make_pair(Median(v), static_cast<int64_t>(v.size()));
  };
  auto [load_s, reps] = median_of("dsgen.load");
  report->Add("dsgen.load_s", load_s, "s", reps);
  report->Add("dsgen.rows_per_s",
              load_s > 0 ? static_cast<double>(total_rows) / load_s : 0.0,
              "rows/s", reps);
  auto [analyze_s, n_analyze] = median_of("storage.analyze");
  report->Add("storage.analyze_s", analyze_s, "s", n_analyze);
  auto [save_s, n_save] = median_of("storage.checkpoint_save");
  report->Add("storage.checkpoint_save_s", save_s, "s", n_save);
  report->Add("storage.checkpoint_bytes_per_row",
              total_rows > 0 ? static_cast<double>(checkpoint_bytes) /
                                   static_cast<double>(total_rows)
                             : 0.0,
              "B/row", 1);
  auto [attach_s, n_attach] = median_of("storage.attach");
  report->Add("storage.attach_ms", attach_s * 1e3, "ms", n_attach);
  auto [audit_s, n_audit] = median_of("storage.audit");
  report->Add("storage.audit_s", audit_s, "s", n_audit);
}

}  // namespace perfbench
