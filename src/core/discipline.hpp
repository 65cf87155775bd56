// Client disciplines: the three contenders of the paper's evaluation.
//
//   Fixed    -- aggressively repeats the work with no delay and no regard
//               for failure ("fixed client").
//   Aloha    -- plain `try`: exponential backoff + random factor after each
//               failure, no knowledge of the medium.
//   Ethernet -- Aloha plus *carrier sense*: a cheap probe of the shared
//               resource before each attempt; a busy medium defers (counts
//               as a failure for backoff purposes) without consuming it.
//
// Collision detection is the attempt itself observing its effects (the
// operation returns failure); the discipline counts those.  Limited
// allocation is the client releasing the resource between work units, which
// is the structure of the scenario clients in grid/.
#pragma once

#include <functional>
#include <string>

#include "core/retry.hpp"

namespace ethergrid::core {

// Probe of the shared medium.  ok() = clear to transmit.  Receives the
// overall attempt deadline so a probe with its own timeout can bound itself.
using CarrierSenseFn = std::function<Status(TimePoint deadline)>;

// Telemetry across one discipline run.
struct DisciplineMetrics {
  TryMetrics try_metrics;
  int deferrals = 0;   // carrier-sense said busy; we backed off pre-emptively
  int collisions = 0;  // the operation itself failed (post-consumption)
  int probes = 0;      // carrier-sense invocations
};

// One disciplined work loop.  The named disciplines (which ones back off,
// which sense the carrier) are described once, by grid::DisciplineTraits;
// callers build this from those traits.
struct Discipline {
  std::string name;
  TryOptions options;             // backoff + budget
  CarrierSenseFn carrier_sense;   // empty for Fixed/Aloha
};

// Runs `work` under the discipline: per attempt, probe the carrier (if any)
// and defer on busy; otherwise run the work.  `work` has run_try's attempt
// shape, `Status(TimePoint deadline)`.  Budget, backoff, abort semantics
// and the clock dispatch (inlined over a SimClock, virtual over a Clock&)
// are run_try's.  `metrics` may be null.
template <class ClockT, class Fn>
Status run_with_discipline(ClockT& clock, Rng& rng,
                           const Discipline& discipline, Fn&& work,
                           DisciplineMetrics* metrics) {
  TryOptions options = discipline.options;
  TryMetrics try_metrics;
  options.metrics = &try_metrics;

  Status result = run_try(clock, rng, options, [&](TimePoint deadline) {
    if (discipline.carrier_sense) {
      if (metrics) ++metrics->probes;
      Status clear = discipline.carrier_sense(deadline);
      if (clear.failed()) {
        if (metrics) ++metrics->deferrals;
        // Deferral: the medium is busy.  Fail the attempt *without* running
        // the work; run_try applies the backoff.
        return Status(clear.code(),
                      "carrier busy: " + std::string(clear.message()));
      }
    }
    Status status = work(deadline);
    if (status.failed() && metrics) ++metrics->collisions;
    return status;
  });

  if (metrics) metrics->try_metrics.merge(try_metrics);
  return result;
}

}  // namespace ethergrid::core
