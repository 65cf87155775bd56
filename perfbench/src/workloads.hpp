// The benchmark's three workloads.  Each repetition builds its worlds
// itself (so set-up is timed apart from the simulated work), runs them for
// a fixed virtual window, checks the simulated outputs, and digests them.
//
//   fig1_sweep     the paper's Figure 1 on one sim::Kernel per point:
//                  25..500 C++ submitters x fixed/aloha/ethernet, 5 min.
//   ftsh_pipeline  simulated clients looping a paper-style ftsh script
//                  through shell::SimExecutor, observers wired as
//                  `ftsh --trace-out` wires them.
//   grid_sharded   a sim::ShardedKernel grid: 32 sites x 400 Ethernet
//                  submitters, cross-site RPC submitters and reservation
//                  bulk senders on a per-site fluid link.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "exp/scenarios.hpp"
#include "grid/placement.hpp"
#include "grid/reservation.hpp"
#include "grid/substrate.hpp"
#include "sim/kernel.hpp"
#include "sim/shard.hpp"

namespace perfbench {

// Virtual time one run_until step advances.  The single-kernel workloads
// always step, and each step, a millisecond or two of wall time, is one
// timed segment of the repetition (see RepResult).  The sharded world steps
// only when traced, and in longer steps, because stepping adds coordinator
// windows there.
inline constexpr ethergrid::Duration kSlice = ethergrid::sec(1);
inline constexpr ethergrid::Duration kGridSlice = ethergrid::sec(10);

// In-situ observation of a traced repetition, gathered only through the
// layers' public functions: run_until is stepped in slices (kSlice,
// kGridSlice) and the worlds are sampled between slices.  Null in untraced
// runs.
struct Tracer {
  std::size_t queue_depth_max = 0;
  std::size_t live_procs_max = 0;
  std::size_t pooled_stacks_max = 0;
  std::size_t peak_flows = 0;        // most concurrent flows on one link
  std::vector<double> window_us;     // per slice: wall / windows run
  std::vector<double> scan_us;       // per slice: timed horizon sweep
  std::uint64_t windows = 0;         // windows run while traced
  std::uint64_t parses = 0;          // in-situ parse_script calls ...
  std::int64_t parse_ns = 0;         // ... and their wall time
  std::uint64_t obs_calls = 0;       // callbacks into the observer sinks
  std::int64_t obs_ns = 0;           // ... and their wall time
  double export_s = 0;               // in-memory trace export
  double trace_mb = 0;
};

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  // wall_s cut into consecutive segments of fixed simulated work (run_until
  // steps, shutdown, export, teardown), in the same order in every
  // repetition of a run at one seed.
  std::vector<double> segments_s;
  std::uint64_t digest = 0;
  std::int64_t worlds = 0;        // worlds simulated in this repetition
  std::int64_t units = 0;         // client work units attempted ...
  std::int64_t units_failed = 0;  // ... and failed
  std::vector<std::string> check_failures;
  Metrics counts;  // deterministic per-layer counters
};

// ----------------------------------------------------------- fig1_sweep

inline constexpr int kFig1Counts[] = {25,  50,  100, 150, 200, 250,
                                      300, 350, 400, 450, 500};
inline constexpr const char* kFig1Disciplines[] = {"fixed", "aloha",
                                                   "ethernet"};
inline constexpr ethergrid::Duration kFig1Window = ethergrid::minutes(5);

// One Figure 1 point, built exactly as exp::run_submit_scale_point builds
// it (no fault plan, no observers).
struct Fig1World {
  Fig1World(std::uint64_t seed, std::string_view discipline, int submitters);

  ethergrid::sim::Kernel kernel;
  ethergrid::grid::Schedd schedd;
  std::vector<ethergrid::grid::SubmitterStats> stats;
};

// `slice` is the run_until step; kFig1Window runs each world in one step.
RepResult run_fig1_sweep(std::uint64_t seed, Tracer* tracer,
                         ethergrid::Duration slice = kSlice);

// ---------------------------------------------------------- ftsh_pipeline

// A repetition runs kPipelines independent pipeline worlds, one after the
// other, each with its own kernel, clients and observers.  Small worlds
// keep the working set (trace included) small: one world of 300 clients x
// 10 minutes (150 MB) swung its wall time by half whenever the host's other
// tenants pressed on the shared caches and memory.
inline constexpr int kPipelines = 4;
inline constexpr int kPipelineClients = 50;  // per world
inline constexpr ethergrid::Duration kPipelineWindow = ethergrid::minutes(5);
extern const char* const kPipelineScript;

// `slice` is the run_until step; kPipelineWindow runs each world in one step.
RepResult run_ftsh_pipeline(std::uint64_t seed, Tracer* tracer,
                            ethergrid::Duration slice = kSlice);

// ----------------------------------------------------------- grid_sharded

// The grid_sharded world's configuration at `seed` with `threads` workers.
ethergrid::exp::ShardedSubmitConfig grid_config(std::uint64_t seed,
                                                std::size_t threads);
inline constexpr ethergrid::Duration kGridWindow = ethergrid::sec(600);
inline constexpr const char* kGridDiscipline = "ethernet";

// The sharded Figure 1 grid, built exactly as exp::run_sharded_submit
// builds it for a config without a fault plan or trace recording.
class GridWorld {
 public:
  GridWorld(const ethergrid::exp::ShardedSubmitConfig& config,
            std::string_view discipline);
  ~GridWorld();
  GridWorld(const GridWorld&) = delete;
  GridWorld& operator=(const GridWorld&) = delete;

  // The scenario result, read the way exp::run_sharded_submit reads it
  // (before shutdown).
  ethergrid::exp::ShardedSubmitResult result(std::string_view discipline);

  const ethergrid::exp::ShardedSubmitConfig config;
  const ethergrid::grid::Placement placement;  // before sk: sets lookahead
  ethergrid::sim::ShardedKernel sk;
  std::vector<std::unique_ptr<ethergrid::grid::Schedd>> schedds;
  std::vector<std::unique_ptr<ethergrid::grid::Substrate>> bulk_links;
  std::vector<std::unique_ptr<ethergrid::grid::ReservationBook>> bulk_books;
  std::vector<ethergrid::grid::SubmitterStats> local_stats;
  std::vector<ethergrid::grid::SubmitterStats> remote_stats;
  std::vector<ethergrid::grid::BulkSenderStats> bulk_stats;

 private:
  void spawn_with_stream(std::size_t shard, std::string name,
                         ethergrid::sim::ProcessBody body);
  ethergrid::sim::ProcessBody remote_submitter(
      std::size_t src_site, const ethergrid::grid::SubmitterConfig& sc,
      ethergrid::grid::SubmitterStats* stats);
};

// Digest of the simulated outputs of a sharded result: per-site stats,
// remote and bulk totals, and the event count.  Window and message counts
// are left out: they describe the coordinator's schedule, which slicing
// run_until changes, not what the world simulated.
std::uint64_t grid_digest(const ethergrid::exp::ShardedSubmitResult& r);

RepResult run_grid_sharded(std::uint64_t seed, std::size_t threads,
                           Tracer* tracer);

// Worker threads grid_sharded uses: min(4, hardware threads).
std::size_t grid_threads();

}  // namespace perfbench
