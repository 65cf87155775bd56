// Test harness for code generic over the clock: runs a body once through a
// SimClock& and once through a core::Clock& bound to a SimClock.
//
// run_try and run_with_discipline take two routes.  Over a SimClock they
// call SimClock's template with_deadline inline; over a Clock& they call the
// virtual override, which forwards to that template.  Both must behave the
// same, and the Clock& route also catches an override that calls itself.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/sim_clock.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace ethergrid::core::harness {

enum class ClockPath { kSimClock, kVirtualClock };

inline const char* path_name(ClockPath path) {
  return path == ClockPath::kSimClock ? "through SimClock&"
                                      : "through Clock&";
}

// Calls body(ctx, clock, rng) inside one process of a fresh kernel, with
// `clock` a SimClock& or a Clock& as `path` says.  Returns the virtual time
// at which the kernel drained.
template <class Body>
TimePoint run_on_path(ClockPath path, const Body& body,
                      std::uint64_t seed = 1) {
  sim::Kernel kernel(seed);
  kernel.spawn("test", [&](sim::Context& ctx) {
    SimClock clock(ctx);
    Rng rng = ctx.rng();
    if (path == ClockPath::kSimClock) {
      body(ctx, clock, rng);
    } else {
      Clock& base = clock;
      body(ctx, base, rng);
    }
  });
  kernel.run();
  return kernel.now();
}

// Runs a generic body, (sim::Context&, auto& clock, Rng&), once per path;
// the body's own expectations run on both, and both runs must end at the
// same virtual time.
template <class Body>
void run_on_both_clocks(const Body& body, std::uint64_t seed = 1) {
  TimePoint ends[2];
  for (ClockPath path : {ClockPath::kSimClock, ClockPath::kVirtualClock}) {
    SCOPED_TRACE(path_name(path));
    ends[int(path)] = run_on_path(path, body, seed);
  }
  EXPECT_EQ(ends[0], ends[1]) << "the two clock paths ended apart";
}

}  // namespace ethergrid::core::harness
