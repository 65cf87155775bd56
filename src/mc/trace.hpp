// Counterexample trace files: a recorded choice vector plus enough header
// to re-create the execution (scenario, seed) and the expected outcome
// (which invariant the trace violates, or none for a clean-replay fixture).
//
// The format is line-oriented text so fixtures diff well in review:
//
//   ethergrid-mc-trace v2
//   scenario forall-abort
//   seed 1
//   violation queue-accounting        <- omitted for clean traces
//   d sched 2 3 sched branch#4
//   d fault 1 2 schedd.submit crash@schedd.submit#0
//   end
//
// Decision lines are `d <kind> <chosen> <arity> <site> <label>`; the label
// is the remainder of the line (names may contain spaces).  `ethergrid_mc
// --replay` exits 0 iff the replayed outcome matches the recorded
// expectation -- a violation trace must reproduce its violation, a clean
// trace must stay clean -- which is what lets ctest run both kinds of
// fixture through one code path.
//
// v1 traces also named an event queue (`queue wheel|heap`); parse_trace
// rejects them with a message saying how to update one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "util/status.hpp"

namespace ethergrid::mc {

struct TraceFile {
  std::string scenario;
  std::uint64_t seed = 1;
  // Name of the invariant this trace violates; empty for a clean fixture.
  std::string violation;
  std::vector<Decision> decisions;
};

// Serializes to the format above.
std::string format_trace(const TraceFile& trace);

// Parses `text`; returns failure with a line-numbered message on malformed
// input.  Unknown header keys are ignored (forward compatibility).
Status parse_trace(const std::string& text, TraceFile* out);

// File-level wrappers.
Status write_trace_file(const std::string& path, const TraceFile& trace);
Status read_trace_file(const std::string& path, TraceFile* out);

}  // namespace ethergrid::mc
