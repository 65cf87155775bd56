// Bench report: one headline JSON entry per bench binary.
//
// Every binary under bench/ constructs a Report at the top of main and
// feeds it the run's headline numbers; the destructor appends one object
// to a machine-readable JSON array so a whole suite run leaves a single
// BENCH_results.json behind for CI artifacts and regression diffing.
//
//   {"name": "fig1_submit_scale", "wall_seconds": 1.84,
//    "events": 5183021, "events_per_sec": 2816859.2,
//    "shape_ok": true, "metrics": {"jobs_high_ethernet": 5321},
//    "detail": ""}
//
// Report path: $ETHERGRID_BENCH_REPORT, default ./BENCH_results.json;
// set it to "off" to disable reporting entirely.  Appending re-writes the
// array terminator, so the file is valid JSON after every binary exits.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ethergrid::bench {

class Report {
 public:
  // Starts the wall clock.  `name` should be the binary's basename.
  explicit Report(std::string name);
  // Writes the entry (unless write() already ran or reporting is off).
  ~Report();

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  // Accumulates virtual-time events processed (sum across kernels/runs);
  // events_per_sec in the entry is this total over the wall clock.  A
  // metric-only report (metric() called, never add_events()) emits null
  // for wall_seconds/events/events_per_sec: its wall clock spans only the
  // report object's lifetime, not the measured work.
  void add_events(std::uint64_t events);

  // Records one shape-check outcome; the entry's shape_ok is the AND of
  // all calls.  Never calling it emits shape_ok: null.
  void shape(bool ok);

  // Extra headline numbers worth tracking across commits.
  void metric(const std::string& key, double value);

  // Free-text annotation (configuration, sweep range, caveats).
  void set_detail(std::string detail);

  // Records the execution shape of a sharded run; the entry then carries
  // "shards" and "threads" fields.  Unset (the default) omits them, so
  // single-kernel benches keep their historical entry format.
  void set_execution(std::size_t shards, std::size_t threads);

  // Records the client discipline the run measured; the entry then carries
  // a "discipline" field and the dedupe key includes it, so one bench
  // sweeping disciplines can publish one entry per discipline (construct
  // one Report per discipline with the same name).
  void set_discipline(std::string discipline);

  // Embeds a pre-rendered JSON object (obs::MetricsRegistry::to_json())
  // as the entry's "observability" field -- the flat counters/histograms
  // the run's ObserverSet collected.
  void set_observability(std::string metrics_json);

  // Appends the entry now; subsequent calls and the destructor are no-ops.
  void write();

  // Resolved report path ("" when reporting is disabled).
  static std::string path();

  // Pulls metrics.<key> out of the `name` entry of a BENCH_results.json
  // (e.g. the committed bench/BASELINE.json); returns 0 when the file,
  // entry, or key is missing so callers can skip their gate.
  static double read_baseline_metric(const std::string& path,
                                     const std::string& name,
                                     const std::string& key);

  // Process peak resident set (getrusage ru_maxrss), 0 where unavailable.
  // write() records it as the "peak_rss_bytes" metric of every entry;
  // memory-sensitive benches divide it further (e.g. fig1's
  // bytes_per_client on the 10^6-client run).
  static std::uint64_t peak_rss_bytes();

 private:
  std::string name_;
  std::string detail_;
  std::string discipline_;  // "" = unset, field omitted
  std::string observability_;  // pre-rendered JSON object, may be empty
  std::vector<std::pair<std::string, double>> metrics_;
  std::uint64_t events_ = 0;
  std::size_t shards_ = 0;   // 0 = unset, fields omitted
  std::size_t threads_ = 0;  // 0 = unset, fields omitted
  int shape_checks_ = 0;
  bool shape_ok_ = true;
  bool written_ = false;
  std::int64_t start_ns_ = 0;
};

}  // namespace ethergrid::bench
