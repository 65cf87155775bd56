#include "report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ethergrid::bench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// %g prints NaN/inf, which JSON rejects; clamp to null at the call site.
// Counts must survive the round trip exactly -- %.6g turns 1000016 clients
// into 1.00002e+06 and breaks any gate that compares scales -- so integral
// values print as integers and the rest get double round-trip precision.
std::string json_number(double value) {
  if (!(value == value) || value > 1e308 || value < -1e308) return "null";
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  }
  return buf;
}

}  // namespace

std::string Report::path() {
  const char* env = std::getenv("ETHERGRID_BENCH_REPORT");
  if (env && std::string(env) == "off") return "";
  return env && *env ? env : "BENCH_results.json";
}

double Report::read_baseline_metric(const std::string& path,
                                    const std::string& name,
                                    const std::string& key) {
  std::ifstream in(path);
  if (!in) return 0;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t entry = text.find("\"name\": \"" + name + "\"");
  if (entry == std::string::npos) return 0;
  const std::size_t pos = text.find("\"" + key + "\": ", entry);
  if (pos == std::string::npos) return 0;
  return std::atof(text.c_str() + pos + key.size() + 4);
}

std::uint64_t Report::peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return std::uint64_t(usage.ru_maxrss);  // bytes on Darwin
#else
  return std::uint64_t(usage.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

Report::Report(std::string name) : name_(std::move(name)), start_ns_(now_ns()) {}

Report::~Report() { write(); }

void Report::add_events(std::uint64_t events) { events_ += events; }

void Report::shape(bool ok) {
  ++shape_checks_;
  shape_ok_ = shape_ok_ && ok;
}

void Report::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

void Report::set_detail(std::string detail) { detail_ = std::move(detail); }

void Report::set_execution(std::size_t shards, std::size_t threads) {
  shards_ = shards;
  threads_ = threads;
}

void Report::set_discipline(std::string discipline) {
  discipline_ = std::move(discipline);
}

void Report::set_observability(std::string metrics_json) {
  observability_ = std::move(metrics_json);
}

void Report::write() {
  if (written_) return;
  written_ = true;
  const std::string file = path();
  if (file.empty()) return;

  const double wall = double(now_ns() - start_ns_) * 1e-9;
  // Benchmark-library binaries (micro_sim, micro_shell) report per-bench
  // rates through metric() and never see the kernel's event counter; for
  // them the Report's own wall clock spans only the report construction,
  // so the wall/events aggregates would be nonsense (microsecond walls,
  // zero events).  Null them out instead of publishing bogus numbers.
  // (Decided before the automatic RSS metric below, which must not flip a
  // metrics-free entry into the metric-only format.)
  const bool metric_only = events_ == 0 && !metrics_.empty();

  // Every entry carries the process peak RSS (a bench that wants a
  // derived number like bytes_per_client records it explicitly and wins
  // the first-writer slot here).
  bool have_rss = false;
  for (const auto& [key, value] : metrics_) {
    have_rss = have_rss || key == "peak_rss_bytes";
  }
  if (!have_rss) {
    const std::uint64_t rss = peak_rss_bytes();
    if (rss > 0) metrics_.emplace_back("peak_rss_bytes", double(rss));
  }
  std::ostringstream entry;
  entry << "  {\"name\": \"" << json_escape(name_) << "\""
        << ", \"wall_seconds\": " << (metric_only ? "null" : json_number(wall))
        << ", \"events\": ";
  if (metric_only) {
    entry << "null";
  } else {
    entry << events_;
  }
  entry << ", \"events_per_sec\": "
        << (wall > 0 && events_ > 0 ? json_number(double(events_) / wall)
                                    : "null")
        << ", \"shape_ok\": "
        << (shape_checks_ == 0 ? "null" : (shape_ok_ ? "true" : "false"));
  if (!discipline_.empty()) {
    entry << ", \"discipline\": \"" << json_escape(discipline_) << "\"";
  }
  if (shards_ > 0) {
    entry << ", \"shards\": " << shards_ << ", \"threads\": " << threads_;
  }
  if (!metrics_.empty()) {
    entry << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) entry << ", ";
      entry << "\"" << json_escape(metrics_[i].first)
            << "\": " << json_number(metrics_[i].second);
    }
    entry << "}";
  }
  if (!observability_.empty()) {
    // Already valid JSON from obs::MetricsRegistry::to_json(); embed raw.
    entry << ", \"observability\": " << observability_;
  }
  if (!detail_.empty()) {
    entry << ", \"detail\": \"" << json_escape(detail_) << "\"";
  }
  entry << "}";

  // Rewrite the whole array: keep every existing entry line except the one
  // this run supersedes, then append this run.  Each entry is written on
  // its own line, so the filter is a plain line scan -- re-running a
  // benchmark updates its row instead of accumulating duplicates, and the
  // file stays valid JSON between every run.  A fresh or garbled file just
  // starts a new array.
  //
  // The dedupe key is (name, shards, discipline): runs across shard counts
  // and disciplines each own a row instead of clobbering each other's.
  // Per-facet migration rule: a line written before a key field existed
  // (no such key in the line) is superseded by any run of the matching
  // older key, and a facet this run leaves unset only matches lines that
  // also lack it.
  std::string existing;
  {
    std::ifstream in(file);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  const std::string name_tag = "\"name\": \"" + json_escape(name_) + "\"";
  const std::string shards_tag =
      shards_ > 0 ? "\"shards\": " + std::to_string(shards_) : "";
  const std::string discipline_tag =
      discipline_.empty()
          ? ""
          : "\"discipline\": \"" + json_escape(discipline_) + "\"";
  // True when `line` matches this run on the key facet whose field name is
  // `key` and whose full tag (field + value) for this run is `tag` ("" =
  // unset this run).  Lines predating the field match an older, coarser
  // key and are treated as matching.
  const auto facet_matches = [](const std::string& line,
                                const std::string& key,
                                const std::string& tag) {
    const bool line_has = line.find("\"" + key + "\":") != std::string::npos;
    if (tag.empty()) return !line_has;
    return !line_has || line.find(tag) != std::string::npos;
  };
  std::vector<std::string> entries;
  std::istringstream lines(existing);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '{') continue;
    while (!line.empty() && (line.back() == ',' || line.back() == ' ' ||
                             line.back() == '\t' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.find(name_tag) != std::string::npos &&
        facet_matches(line, "shards", shards_tag) &&
        facet_matches(line, "discipline", discipline_tag)) {
      continue;  // superseded by this run
    }
    entries.push_back(line);
  }
  entries.push_back(entry.str());

  std::ofstream out(file, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "[bench] cannot write report to %s\n", file.c_str());
    return;
  }
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << entries[i] << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace ethergrid::bench
