// Isolated per-call costs of each layer, measured on small fixtures that
// call only the layer's public functions.  The ledger multiplies them by the
// counts a workload reports and compares the sum with its wall time.
#pragma once

#include <cstddef>

namespace perfbench {

struct ProbeResults {
  // sim::Kernel
  double switch_ns = 0;       // per event, two processes ping-ponging Events
  double sleep_event_ns = 0;  // per event, 256 processes on staggered sleeps
  double spawn_ns = 0;        // per spawn + run-to-finish, process pool warm
  // grid substrates.  submit, reject and reshare are net of the kernel
  // events their fixtures dispatched, each charged at the per-event cost of
  // a control fixture with the same number of processes only sleeping, so
  // the ledger can charge every event once, to sim.
  double fd_ns = 0;           // FdTable try_allocate + free
  double submit_ns = 0;       // accepted Schedd::submit, 8 clients
  double refused_submit_ns = 0;  // Schedd::submit refused: fd table full
  double reshare_ns = 0;      // FluidResource re-share at `flows` flows
  // core
  double backoff_ns = 0;      // per failed attempt of run_with_discipline
  // shell, observers off
  double parse_us = 0;        // parse_script of the pipeline script
  double cmd_ns = 0;          // one command through Interpreter+SimExecutor
  // ShardedKernel on an idle world (one sleeper per shard)
  double empty_window_us = 0;     // per window at `threads` workers
  double empty_window_1t_us = 0;  // per window inline (threads = 1)
  double idle_window_us_p50 = 0;  // per-slice window time quantiles at
  double idle_window_us_p99 = 0;  // `threads` workers
  double idle_scan_us = 0;        // next_live_event_time sweep, all shards
  // obs: TraceRecorder + MetricsRegistry behind the timing decorator
  double obs_ns_per_call = 0;
  double obs_export_s = 0;
};

// Runs every probe.  `threads` is the worker count the sharded fixture uses;
// `flows` the concurrent flow count the re-share fixture holds.
ProbeResults run_probes(std::size_t threads, std::size_t flows);

}  // namespace perfbench
