// gridsim: explore the paper's three scenarios from the command line.
//
// Usage:
//   gridsim submit  [--clients N] [--discipline D] [--minutes M]
//                   [--threshold FDS] [--seed S] [--faults SPEC] [--timeline]
//   gridsim buffer  [--producers N] [--discipline D] [--seconds S]
//                   [--capacity-mb MB] [--seed S] [--faults SPEC]
//   gridsim readers [--discipline D] [--readers N] [--seconds S]
//                   [--flaky P] [--seed S] [--faults SPEC]
//   gridsim bulk    [--senders N] [--discipline D] [--seconds S]
//                   [--link-mbps M] [--file-mb MB] [--seed S] [--faults SPEC]
//
// Every mode also accepts [--trace-out FILE]: write a Perfetto/Chrome
// trace-event JSON of the run's back-channel events (collisions,
// carrier-sense probes, table-full deferrals, crashes, injected faults).
//
// D names any registered discipline (grid::DisciplineRegistry) -- built in:
// fixed | aloha | ethernet | reservation.  Disciplines that negotiate
// reservations only make sense over the fluid link of the `bulk` mode;
// the binary-collision scenarios (submit/buffer/readers) reject them.
// Every run is deterministic in the seed; change --seed to see another
// realization.
//
// SPEC is a semicolon-separated fault plan, e.g.
//   --faults 'fileserver.*.fetch:reset@0.2;schedd.submit:stall@0.1,5'
// (see sim/fault_plan.hpp for the grammar; times are plain seconds).  Same
// seed + same plan replays the identical fault sequence; the run ends by
// printing the fault audit.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "exp/scenarios.hpp"
#include "exp/table.hpp"
#include "grid/discipline_registry.hpp"
#include "obs/trace.hpp"

using namespace ethergrid;

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : std::atoll(it->second.c_str());
  }
  double get_double(const std::string& name, double fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
  std::string get(const std::string& name, const std::string& fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  bool has(const std::string& name) const { return values.count(name) > 0; }
};

bool parse_flags(int argc, char** argv, int start, Flags* flags) {
  for (int i = start; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "gridsim: unexpected argument '%s'\n", arg);
      return false;
    }
    std::string name = arg + 2;
    if (name == "timeline") {
      flags->values[name] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "gridsim: --%s needs a value\n", name.c_str());
      return false;
    }
    flags->values[name] = argv[++i];
  }
  return true;
}

// Parses --faults into *plan; returns false (with a message) on bad specs.
bool parse_fault_flag(const Flags& flags, sim::FaultPlan* plan) {
  if (!flags.has("faults")) return true;
  Status status = sim::FaultPlan::parse(flags.get("faults", ""), plan);
  if (status.failed()) {
    std::fprintf(stderr, "gridsim: --faults: %.*s\n",
                 int(status.message().size()), status.message().data());
    return false;
  }
  return true;
}

// Optional --trace-out wiring: a TraceRecorder composed into an ObserverSet
// the scenario hands down to the grid substrates (carrier-sense probes,
// collisions, table-full deferrals, crashes, injected faults).
struct Tracing {
  obs::TraceRecorder recorder{"gridsim"};
  obs::ObserverSet set;
  std::string path;

  explicit Tracing(const Flags& flags) : path(flags.get("trace-out", "")) {
    set.add(&recorder);
  }
  obs::ObserverSet* observers() { return path.empty() ? nullptr : &set; }
  // Returns a nonzero exit code if writing the trace failed.
  int finish() const {
    if (path.empty()) return 0;
    Status status = recorder.write_file(path);
    if (status.failed()) {
      std::fprintf(stderr, "gridsim: --trace-out: %s\n",
                   status.to_string().c_str());
      return 2;
    }
    std::printf("trace: %zu event(s) written to %s\n",
                recorder.event_count(), path.c_str());
    return 0;
  }
};

void print_fault_audit(std::int64_t fired, const std::string& audit) {
  if (fired == 0) return;
  std::printf("\nfault audit (%lld fired):\n%s", (long long)fired,
              audit.c_str());
}

// Resolves --discipline through the registry (so a discipline registered at
// startup is immediately usable) instead of the old hard-coded enum switch.
// The binary-collision modes pass fluid=false: their clients work the
// resource directly and cannot express grant negotiation, so a
// reservation-flagged discipline is a flag error there, not an abort in
// the client factory.
bool parse_discipline(const Flags& flags, std::string* name,
                      bool fluid = false) {
  *name = flags.get("discipline", "ethernet");
  const grid::DisciplineTraits* traits = grid::find_discipline(*name);
  if (traits == nullptr) {
    std::fprintf(stderr, "gridsim: unknown discipline '%s' (registered: %s)\n",
                 name->c_str(), grid::discipline_names_csv().c_str());
    return false;
  }
  if (traits->reservation && !fluid) {
    std::fprintf(stderr,
                 "gridsim: discipline '%s' negotiates bandwidth reservations "
                 "and only applies to the fluid `bulk` mode\n",
                 name->c_str());
    return false;
  }
  return true;
}

int run_submit(const Flags& flags) {
  std::string discipline;
  if (!parse_discipline(flags, &discipline)) return 2;
  const int clients = int(flags.get_int("clients", 400));
  const int minutes_total = int(flags.get_int("minutes", 5));
  exp::SubmitScenarioConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.submitter.fd_threshold = flags.get_int("threshold", 1000);
  if (!parse_fault_flag(flags, &config.faults)) return 2;
  Tracing tracing(flags);
  config.observers = tracing.observers();

  if (flags.has("timeline")) {
    auto timeline = exp::run_submitter_timeline(
        config, discipline, clients, ethergrid::minutes(minutes_total),
        sec(10));
    exp::Table table("Submitter timeline", {"t_seconds", "available_fds",
                                            "jobs_submitted"});
    for (const auto& p : timeline.points) {
      table.add_row({exp::Table::cell(p.t_seconds),
                     exp::Table::cell(p.available_fds),
                     exp::Table::cell(p.jobs_submitted)});
    }
    table.print();
    std::printf("\njobs=%lld crashes=%d\n", (long long)timeline.jobs_total,
                timeline.schedd_crashes);
    print_fault_audit(timeline.faults_injected, timeline.fault_audit);
    return tracing.finish();
  }

  auto point = exp::run_submit_scale_point(config, discipline, clients,
                                           ethergrid::minutes(minutes_total));
  std::printf(
      "%d %s submitters, %d min: jobs=%lld crashes=%d fd_low_watermark=%lld\n",
      clients, discipline.c_str(), minutes_total,
      (long long)point.jobs_submitted, point.schedd_crashes,
      (long long)point.fd_low_watermark);
  print_fault_audit(point.faults_injected, point.fault_audit);
  return tracing.finish();
}

int run_buffer(const Flags& flags) {
  std::string discipline;
  if (!parse_discipline(flags, &discipline)) return 2;
  const int producers = int(flags.get_int("producers", 20));
  const int seconds = int(flags.get_int("seconds", 600));
  exp::BufferScenarioConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.buffer_bytes = flags.get_int("capacity-mb", 120) << 20;
  if (!parse_fault_flag(flags, &config.faults)) return 2;
  Tracing tracing(flags);
  config.observers = tracing.observers();

  auto point = exp::run_buffer_point(config, discipline, producers,
                                     sec(seconds));
  std::printf(
      "%d %s producers, %d s, %lld MB buffer:\n"
      "  consumed=%lld files (%.1f MB)  completed=%lld  collisions=%lld  "
      "deferrals=%lld\n",
      producers, discipline.c_str(), seconds,
      (long long)(config.buffer_bytes >> 20),
      (long long)point.files_consumed,
      double(point.bytes_consumed) / (1 << 20),
      (long long)point.files_completed, (long long)point.collisions,
      (long long)point.deferrals);
  print_fault_audit(point.faults_injected, point.fault_audit);
  return tracing.finish();
}

int run_readers(const Flags& flags) {
  std::string discipline;
  if (!parse_discipline(flags, &discipline)) return 2;
  const int seconds = int(flags.get_int("seconds", 900));
  exp::ReaderScenarioConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.readers = int(flags.get_int("readers", 3));
  config.servers = exp::ReaderScenarioConfig::paper_farm();
  const double flaky = flags.get_double("flaky", 0.0);
  for (auto& server : config.servers) {
    if (!server.black_hole) server.transient_failure_rate = flaky;
  }
  if (!parse_fault_flag(flags, &config.faults)) return 2;
  Tracing tracing(flags);
  config.observers = tracing.observers();

  auto timeline = exp::run_reader_timeline(config, discipline, sec(seconds),
                                           sec(30));
  std::printf(
      "%d %s readers, %d s (1 black hole, flaky=%.2f):\n"
      "  transfers=%lld  60s-stalls=%lld  deferrals=%lld\n",
      config.readers, discipline.c_str(), seconds, flaky,
      (long long)timeline.transfers_total,
      (long long)timeline.collisions_total,
      (long long)timeline.deferrals_total);
  print_fault_audit(timeline.faults_injected, timeline.fault_audit);
  return tracing.finish();
}

// N senders share one fluid link; this is the mode where `reservation`
// actually negotiates grants (the other modes run on binary media).
int run_bulk(const Flags& flags) {
  std::string discipline;
  if (!parse_discipline(flags, &discipline, /*fluid=*/true)) return 2;
  const int senders = int(flags.get_int("senders", 8));
  const int seconds = int(flags.get_int("seconds", 600));
  exp::BulkScenarioConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.link_bps = flags.get_double("link-mbps", 10.0) * 1024 * 1024;
  config.sender.file_bytes = flags.get_int("file-mb", 32) << 20;
  if (!parse_fault_flag(flags, &config.faults)) return 2;
  Tracing tracing(flags);
  config.observers = tracing.observers();

  auto point = exp::run_bulk_point(config, discipline, senders, sec(seconds));
  std::printf(
      "%d %s senders, %d s, %.1f MiB/s link, %lld MB files:\n"
      "  files=%lld (%.1f MB)  goodput=%.2f MB/s  jain=%.4f\n"
      "  collisions=%lld  deferrals=%lld  timeouts=%lld",
      senders, discipline.c_str(), seconds,
      config.link_bps / (1024.0 * 1024.0),
      (long long)(config.sender.file_bytes >> 20), (long long)point.files_sent,
      double(point.bytes_sent) / (1 << 20), point.goodput_bps / 1e6,
      point.jain_fairness, (long long)point.collisions,
      (long long)point.deferrals, (long long)point.attempt_timeouts);
  if (point.grants || point.rejects) {
    std::printf("  grants=%lld  rejects=%lld", (long long)point.grants,
                (long long)point.rejects);
  }
  std::printf("\n");
  print_fault_audit(point.faults_injected, point.fault_audit);
  return tracing.finish();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gridsim submit|buffer|readers|bulk [--flag value ...]\n"
      "  submit:  --clients N --discipline D --minutes M --threshold FDS\n"
      "           --seed S --faults SPEC --timeline\n"
      "  buffer:  --producers N --discipline D --seconds S --capacity-mb MB\n"
      "           --seed S --faults SPEC\n"
      "  readers: --readers N --discipline D --seconds S --flaky P --seed S\n"
      "           --faults SPEC\n"
      "  bulk:    --senders N --discipline D --seconds S --link-mbps M\n"
      "           --file-mb MB --seed S --faults SPEC\n"
      "disciplines: %s\n"
      "all modes accept --trace-out FILE (Perfetto/Chrome trace-event JSON\n"
      "of collisions, carrier-sense probes, deferrals, crashes, faults)\n"
      "SPEC: 'site:kind@args;...', e.g.\n"
      "  'fileserver.*.fetch:reset@0.2;schedd.submit:crash@120'\n"
      "kinds: fail@P  stall@P,SECS  reset@P[,F1-F2]  crash@T  drop@T1-T2\n"
      "(times in plain seconds)\n",
      grid::discipline_names_csv().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Flags flags;
  if (!parse_flags(argc, argv, 2, &flags)) return 2;
  const std::string mode = argv[1];
  if (mode == "submit") return run_submit(flags);
  if (mode == "buffer") return run_buffer(flags);
  if (mode == "readers") return run_readers(flags);
  if (mode == "bulk") return run_bulk(flags);
  return usage();
}
