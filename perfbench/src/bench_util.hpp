// Small helpers shared by the benchmark's workloads, probes and main:
// wall-clock timing, order statistics, a digest hasher, CPU seating, and
// the timing decorator that measures the observer layer from outside.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observer.hpp"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

inline std::int64_t nanos_since(WallClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now() - t0)
      .count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// FNV-1a over the simulated outputs a workload reports; equal digests mean
// the simulation produced the same results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(std::uint8_t(v >> (8 * i)));
  }
  void add(std::string_view s) {
    for (char c : s) byte(std::uint8_t(c));
    add(std::uint64_t(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

// Seats the calling thread on the CPU that is least disturbed right now.
// On a shared host each CPU is slowed, in turn, for seconds at a time by
// whatever shares its core; the kernel's scheduler cannot see that and
// leaves an idle single-threaded process where it is.  take_fastest() times
// a short fixed loop on every CPU the process may use and pins the thread
// to the fastest, and refresh() does so again once `kPeriod` has passed;
// release() lets it run anywhere again.  Threads inherit their creator's
// CPU set, so multi-threaded work must not be seated.
class CpuSeat {
 public:
  static constexpr double kPeriod = 0.1;  // seconds


  CpuSeat() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
  }

  void take_fastest() {
    if (CPU_COUNT(&allowed_) < 2) return;
    int best = -1;
    double best_s = 0;
    for (int round = 0; round < 2; ++round) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
        const double s = probe();
        if (best < 0 || s < best_s) {
          best = cpu;
          best_s = s;
        }
      }
    }
    if (best < 0 || !pin(best)) release();
    taken_ = WallClock::now();
  }

  void refresh() {
    if (seconds_since(taken_) >= kPeriod) take_fastest();
  }

  void release() {
    if (CPU_COUNT(&allowed_) > 0) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

 private:
  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  // About half a millisecond of cache-resident integer work.
  static double probe() {
    std::uint32_t v[256] = {};
    const auto t0 = WallClock::now();
    for (std::uint32_t k = 0; k < (1u << 19); ++k) {
      std::uint32_t& x = v[k & 255];
      x = x * 1664525u + 1013904223u + k;
      v[(x >> 8) & 255] ^= x;
    }
    const double s = seconds_since(t0);
    volatile std::uint32_t sink = v[0];
    (void)sink;
    return s;
  }

  cpu_set_t allowed_;
  WallClock::time_point taken_;
};

// The seat of the repetition running now, refreshed between the timed
// segments of its work; null when the workload is not seated.
inline CpuSeat*& current_seat() {
  static CpuSeat* seat = nullptr;
  return seat;
}

// Named per-layer values of one repetition (counts and in-situ timings).
using Metrics = std::map<std::string, double>;

// Wraps the real observer sinks and times every callback into them.  Added
// to an ObserverSet in place of the sinks it wraps, so span ids and the
// sinks' outputs are unchanged; only the time spent inside them is
// recorded.  Also counts span begins by kind, which the checks compare
// against handler invocations (the sinks see span ends only).
class TimedObserver final : public ethergrid::obs::Observer {
 public:
  void wrap(ethergrid::obs::Observer* sink) { sinks_.push_back(sink); }

  void on_span_begin(const ethergrid::obs::Span& span) override {
    ++begins_[int(span.kind)];
    const auto t0 = WallClock::now();
    for (auto* s : sinks_) s->on_span_begin(span);
    note(t0);
  }
  void on_span_end(const ethergrid::obs::Span& span) override {
    const auto t0 = WallClock::now();
    for (auto* s : sinks_) s->on_span_end(span);
    note(t0);
  }
  void on_event(const ethergrid::obs::ObsEvent& event) override {
    const auto t0 = WallClock::now();
    for (auto* s : sinks_) s->on_event(event);
    note(t0);
  }
  void on_output(ethergrid::obs::StreamKind stream,
                 std::string_view text) override {
    const auto t0 = WallClock::now();
    for (auto* s : sinks_) s->on_output(stream, text);
    note(t0);
  }
  void on_log(const ethergrid::obs::ObsLogLine& line) override {
    const auto t0 = WallClock::now();
    for (auto* s : sinks_) s->on_log(line);
    note(t0);
  }

  std::uint64_t calls() const { return calls_; }
  std::int64_t total_ns() const { return total_ns_; }
  std::uint64_t begins(ethergrid::obs::SpanKind kind) const {
    return begins_[int(kind)];
  }

 private:
  void note(WallClock::time_point t0) {
    ++calls_;
    total_ns_ += nanos_since(t0);
  }

  std::vector<ethergrid::obs::Observer*> sinks_;
  std::uint64_t calls_ = 0;
  std::int64_t total_ns_ = 0;
  std::uint64_t begins_[ethergrid::obs::kSpanKindCount] = {};
};

}  // namespace perfbench
