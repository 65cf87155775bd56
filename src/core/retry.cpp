#include "core/retry.hpp"

namespace ethergrid::core {

void TryMetrics::merge(const TryMetrics& other) {
  attempts += other.attempts;
  failures += other.failures;
  backoff_total += other.backoff_total;
  elapsed += other.elapsed;
  succeeded = succeeded || other.succeeded;
  timed_out = timed_out || other.timed_out;
  attempts_exhausted = attempts_exhausted || other.attempts_exhausted;
}

}  // namespace ethergrid::core
