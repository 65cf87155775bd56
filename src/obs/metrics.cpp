#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"  // append_json_escaped / append_json_number

namespace ethergrid::obs {

// Bucket i holds samples in (2^(i-32-1), 2^(i-32)]; bucket 0 catches
// everything at or below 2^-32 (including zero), bucket 63 everything
// above 2^30.  That spans sub-microsecond latencies to ~34 years of
// virtual seconds, which is plenty.
int Histogram::bucket_for(double value) {
  if (!(value > 0)) return 0;
  int exp = static_cast<int>(std::ceil(std::log2(value)));
  int bucket = exp + 32;
  return std::clamp(bucket, 0, kBuckets - 1);
}

void Histogram::record(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Improve-only CAS: once the extremes settle, each is one relaxed load.
  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  buckets_[bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank && seen > 0) {
      // Upper bound of bucket i, clamped into the observed range.
      double upper = std::ldexp(1.0, i - 32);
      return std::clamp(upper, min(), max());
    }
  }
  return max();
}

std::string Histogram::to_json() const {
  std::string out = "{\"count\":";
  append_json_number(&out, static_cast<double>(count()));
  out += ",\"sum\":";
  append_json_number(&out, sum());
  out += ",\"min\":";
  append_json_number(&out, min());
  out += ",\"max\":";
  append_json_number(&out, max());
  out += ",\"mean\":";
  append_json_number(&out, mean());
  out += ",\"p50\":";
  append_json_number(&out, quantile(0.50));
  out += ",\"p95\":";
  append_json_number(&out, quantile(0.95));
  out += ",\"p99\":";
  append_json_number(&out, quantile(0.99));
  out += '}';
  return out;
}

std::atomic<double>* MetricsRegistry::cell_for(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cell_index_.find(name);
  if (it != cell_index_.end()) return &it->second->value;
  Cell& cell = cells_.emplace_back();
  cell.name = name;
  cell_index_.emplace(cell.name, &cell);
  return &cell.value;
}

MetricsRegistry::Counter MetricsRegistry::counter_handle(
    std::string_view name) {
  return Counter(cell_for(name));
}

void MetricsRegistry::add(std::string_view name, double delta) {
  cell_for(name)->fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::record(std::string_view name, double value) {
  if (const Histogram* fixed = fixed_histogram(name)) {
    // Manual samples under a derived name feed the derived histogram, so
    // reads and the JSON export see one merged distribution.  Lock-free:
    // the fixed histograms record atomically.
    const_cast<Histogram*>(fixed)->record(value);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  it->second.record(value);
}

double MetricsRegistry::derived_counter(std::string_view name) const {
  if (name == "commands.attempts") {
    // Every command span is one attempt; alias the span slot.
    return static_cast<double>(
        span_counts_[static_cast<int>(SpanKind::kCommand)].load(
            std::memory_order_relaxed));
  }
  if (name == "events.carrier-sense.deferred") {
    return static_cast<double>(
        carrier_deferred_.load(std::memory_order_relaxed));
  }
  if (name.substr(0, 6) == "spans.") {
    std::string_view rest = name.substr(6);
    const bool failed = rest.size() > 7 &&
                        rest.substr(rest.size() - 7) == ".failed";
    if (failed) rest = rest.substr(0, rest.size() - 7);
    for (int k = 0; k < kSpanKindCount; ++k) {
      if (rest != span_kind_name(static_cast<SpanKind>(k))) continue;
      const auto& slot = failed ? span_failed_[k] : span_counts_[k];
      return static_cast<double>(slot.load(std::memory_order_relaxed));
    }
  }
  if (name.substr(0, 7) == "events.") {
    const std::string_view rest = name.substr(7);
    for (int k = 0; k < kObsEventKindCount; ++k) {
      if (rest != obs_event_kind_name(static_cast<ObsEvent::Kind>(k))) continue;
      return static_cast<double>(
          event_counts_[k].load(std::memory_order_relaxed));
    }
  }
  return 0;
}

double MetricsRegistry::counter(std::string_view name) const {
  double value = derived_counter(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cell_index_.find(name);
  if (it != cell_index_.end()) {
    value += it->second->value.load(std::memory_order_relaxed);
  }
  return value;
}

const Histogram* MetricsRegistry::fixed_histogram(std::string_view name) const {
  if (name == "command_duration_us") return &command_duration_us_;
  if (name == "process_duration_us") return &process_duration_us_;
  if (name == "try_attempts") return &try_attempts_;
  if (name == "try_backoff_total_s") return &try_backoff_total_s_;
  if (name == "forall_branches") return &forall_branches_;
  if (name == "backoff_delay_s") return &backoff_delay_s_;
  if (name == "forall_occupancy") return &forall_occupancy_;
  if (name == "kill_latency_s") return &kill_latency_s_;
  return nullptr;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Histogram* fixed = fixed_histogram(name)) {
    return fixed->count() > 0 ? fixed : nullptr;  // match map materialization
  }
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::on_span_end(const Span& span) {
  const int k = static_cast<int>(span.kind);
  span_counts_[k].fetch_add(1, std::memory_order_relaxed);
  if (span.status.failed()) {
    span_failed_[k].fetch_add(1, std::memory_order_relaxed);
  }
  switch (span.kind) {
    case SpanKind::kCommand:
      command_duration_us_.record(
          static_cast<double>((span.end - span.start).count()));
      break;
    case SpanKind::kTry:
      if (span.attempts > 0) try_attempts_.record(span.attempts);
      if (span.backoff > Duration(0)) {
        try_backoff_total_s_.record(to_seconds(span.backoff));
      }
      break;
    case SpanKind::kForall:
      if (span.attempts > 0) forall_branches_.record(span.attempts);
      break;
    case SpanKind::kProcess:
      process_duration_us_.record(
          static_cast<double>((span.end - span.start).count()));
      break;
    default:
      break;
  }
}

void MetricsRegistry::on_event(const ObsEvent& event) {
  event_counts_[static_cast<int>(event.kind)].fetch_add(
      1, std::memory_order_relaxed);
  switch (event.kind) {
    case ObsEvent::Kind::kBackoff:
      backoff_delay_s_.record(event.value);
      break;
    case ObsEvent::Kind::kOccupancy:
      forall_occupancy_.record(event.value);
      break;
    case ObsEvent::Kind::kKill:
      kill_latency_s_.record(event.value);
      break;
    case ObsEvent::Kind::kCarrierSense:
      if (event.value == 0) {
        carrier_deferred_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    default:
      break;
  }
}

std::string MetricsRegistry::to_json() const {
  // Merge derived slots (only the ones that ever fired, mirroring the old
  // materialize-on-first-bump behavior) with the manual cells, sorted.
  std::map<std::string, double, std::less<>> counters;
  for (int k = 0; k < kSpanKindCount; ++k) {
    const auto n = span_counts_[k].load(std::memory_order_relaxed);
    const auto f = span_failed_[k].load(std::memory_order_relaxed);
    std::string base = "spans.";
    base += span_kind_name(static_cast<SpanKind>(k));
    if (n != 0) counters[base] += static_cast<double>(n);
    if (f != 0) counters[base + ".failed"] += static_cast<double>(f);
  }
  for (int k = 0; k < kObsEventKindCount; ++k) {
    const auto n = event_counts_[k].load(std::memory_order_relaxed);
    if (n == 0) continue;
    std::string name = "events.";
    name += obs_event_kind_name(static_cast<ObsEvent::Kind>(k));
    counters[name] += static_cast<double>(n);
  }
  if (const auto n = span_counts_[static_cast<int>(SpanKind::kCommand)].load(
          std::memory_order_relaxed)) {
    counters["commands.attempts"] += static_cast<double>(n);
  }
  if (const auto n = carrier_deferred_.load(std::memory_order_relaxed)) {
    counters["events.carrier-sense.deferred"] += static_cast<double>(n);
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const Cell& cell : cells_) {
    counters[cell.name] += cell.value.load(std::memory_order_relaxed);
  }

  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(&out, name);
    out += "\":";
    append_json_number(&out, value);
  }
  out += "},\"histograms\":{";

  std::map<std::string_view, const Histogram*> histograms;
  for (std::string_view name :
       {"command_duration_us", "process_duration_us", "try_attempts",
        "try_backoff_total_s", "forall_branches", "backoff_delay_s",
        "forall_occupancy", "kill_latency_s"}) {
    const Histogram* h = fixed_histogram(name);
    if (h->count() > 0) histograms[name] = h;
  }
  for (const auto& [name, hist] : histograms_) histograms[name] = &hist;
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(&out, name);
    out += "\":";
    out += hist->to_json();
  }
  out += "}}";
  return out;
}

}  // namespace ethergrid::obs
