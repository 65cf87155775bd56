#include "core/discipline.hpp"

namespace ethergrid::core {

Status run_with_discipline(Clock& clock, Rng& rng,
                           const Discipline& discipline, const AttemptFn& work,
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
        return Status(clear.code(), "carrier busy: " + clear.message());
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
