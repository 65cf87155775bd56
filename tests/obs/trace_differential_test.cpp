// Generative differential for the Chrome-trace export: seeded random
// streams of spans and instants go to a TraceRecorder and to the
// per-record reference renderer in trace_render_oracle.hpp, and the two
// exports must be byte-identical.  The feeds aim at what the one-pass
// writer does differently: escaping (runs, control bytes, bytes >= 0x80,
// payloads longer than the writer's chunk), integers past 2^53 that must
// round exactly as the double path did, fractional/negative/non-finite
// doubles, empty names and sites, many lanes, every kind and status.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "obs/site.hpp"
#include "obs/trace.hpp"
#include "trace_render_oracle.hpp"
#include "util/rng.hpp"

namespace ethergrid::obs {
namespace {

constexpr int kSeeds = 256;

class Feed {
 public:
  explicit Feed(std::uint64_t seed) : rng_(Rng(seed).stream("trace-feed")) {
    for (int i = 0; i < 6; ++i) names_.push_back(text(12));
    names_.emplace_back();  // spans without an extra name
    sites_.push_back(kSiteNone);
    sites_.push_back(0xfffffff0u);  // never interned: resolves to ""
    for (int i = 0; i < 4; ++i) sites_.push_back(intern_site(text(10)));
    const int lanes = static_cast<int>(rng_.uniform_int(1, 300));
    for (int i = 0; i < lanes; ++i) lanes_.push_back(id());
    lanes_.push_back(0);
  }

  Rng& rng() { return rng_; }

  // Bytes that must be escaped, bytes that must not, and plain text.
  std::string text(int max_len) {
    static constexpr char kBytes[] = {'"',    '\\',   '\n',   '\t',   '\r',
                                      '\x01', '\x1f', '\x7f', '\x80', '\xc3',
                                      '\xa9', '\xff', ' ',    ':',    '{'};
    std::string out;
    const auto len = rng_.uniform_int(0, max_len);
    for (std::int64_t i = 0; i < len; ++i) {
      if (rng_.chance(0.3)) {
        out.push_back(kBytes[rng_.uniform_int(0, sizeof(kBytes) - 1)]);
      } else {
        out.push_back(static_cast<char>('a' + rng_.uniform_int(0, 25)));
      }
    }
    return out;
  }

  // Payload strings: usually short, now and then longer than the writer's
  // 4 KiB chunk, either plain or dense with escapes.
  std::string payload() {
    if (rng_.chance(0.02)) {
      return rng_.chance(0.5) ? std::string(6000, 'x') : text(9000);
    }
    return rng_.chance(0.3) ? std::string() : text(40);
  }

  // Ids and lanes: zero, small, exactly 2^53, and past 2^53 (where the
  // old renderer's double rounding must be reproduced).
  std::uint64_t id() {
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        return 0;
      case 1:
        return std::uint64_t{1} << 53;
      case 2:
        return (std::uint64_t{1} << 53) + rng_.uniform_int(1, 1000);
      case 3:
        return rng_.next_u64() >> 2;  // up to 2^62
      default:
        return static_cast<std::uint64_t>(rng_.uniform_int(1, 100000));
    }
  }

  // Virtual microseconds, negative and past 2^53 included.
  std::int64_t micros() {
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return -rng_.uniform_int(0, 1'000'000'000);
      case 1:
        return rng_.uniform_int(std::int64_t{1} << 53, std::int64_t{1} << 62);
      default:
        return rng_.uniform_int(0, std::int64_t{1} << 40);
    }
  }

  // Values well inside int64 range, where the old formatter is exact.
  double value() {
    switch (rng_.uniform_int(0, 8)) {
      case 0:
        return 0;
      case 1:
        return std::numeric_limits<double>::quiet_NaN();
      case 2:
        return -std::numeric_limits<double>::infinity();
      case 3:
        return rng_.uniform(-1e18, 1e18);
      case 4:
        return static_cast<double>(rng_.uniform_int(-1'000'000, 1'000'000));
      case 5:
        return rng_.uniform(-1e-5, 1e-5);  // rounds to (-)0 at 6 digits
      case 6:
        return -0.0;
      default:
        return rng_.uniform(-100, 100);
    }
  }

  std::string_view name() { return pick(names_); }
  SiteId site() { return pick(sites_); }
  std::uint64_t lane() { return pick(lanes_); }

 private:
  template <typename C>
  const typename C::value_type& pick(const C& pool) {
    const auto last = static_cast<std::int64_t>(pool.size()) - 1;
    return pool[static_cast<std::size_t>(rng_.uniform_int(0, last))];
  }

  Rng rng_;
  std::deque<std::string> names_;
  std::vector<SiteId> sites_;
  std::vector<std::uint64_t> lanes_;
};

TEST(TraceDifferentialTest, ExportMatchesPerRecordOracle) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Feed feed(static_cast<std::uint64_t>(seed));
    Rng& rng = feed.rng();
    const std::string process = feed.text(16);
    const int pid = static_cast<int>(rng.uniform_int(-5, 1'000'000));
    TraceRecorder recorder(process, pid);
    oracle::TraceRenderOracle oracle(process, pid);

    const auto records = rng.uniform_int(0, 400);
    for (std::int64_t r = 0; r < records; ++r) {
      const std::string detail = feed.payload();
      if (rng.chance(0.4)) {
        ObsEvent event;
        event.kind = static_cast<ObsEvent::Kind>(
            rng.uniform_int(0, kObsEventKindCount - 1));
        event.time = TimePoint{} + Duration(feed.micros());
        event.span = feed.id();
        event.site = feed.site();
        event.detail = detail;
        event.value = feed.value();
        recorder.on_event(event);
        oracle.on_event(event);
        continue;
      }
      const std::string message = feed.payload();
      Span span;
      span.id = feed.id();
      span.parent = feed.id();
      span.kind =
          static_cast<SpanKind>(rng.uniform_int(0, kSpanKindCount - 1));
      span.name = feed.name();
      span.detail = detail;
      span.line = static_cast<int>(rng.uniform_int(-3, 5000));
      span.track = feed.lane();
      span.start = TimePoint{} + Duration(feed.micros());
      span.end = rng.chance(0.1)
                     ? TimePoint{} + Duration(feed.micros())
                     : span.start + Duration(rng.uniform_int(0, 1'000'000));
      span.status = Status(static_cast<StatusCode>(rng.uniform_int(
                               0, static_cast<int>(StatusCode::kUnavailable))),
                           message);
      span.attempts = static_cast<int>(rng.uniform_int(-2, 50));
      span.backoff = rng.chance(0.5) ? Duration(0) : Duration(feed.micros());
      recorder.on_span_begin(span);
      recorder.on_span_end(span);
      oracle.on_span_end(span);
    }
    const std::string got = recorder.to_json();
    const std::string want = oracle.to_json();
    if (got != want) {
      const std::size_t at = static_cast<std::size_t>(
          std::mismatch(got.begin(), got.end(), want.begin(), want.end())
              .first -
          got.begin());
      const std::size_t from = at < 60 ? 0 : at - 60;
      FAIL() << "seed " << seed << ": exports differ at byte " << at
             << "\n got: " << got.substr(from, 120)
             << "\nwant: " << want.substr(from, 120);
    }
  }
}

// The shared formatter against the old snprintf one, value by value.
TEST(TraceDifferentialTest, FormattersMatchOracle) {
  Feed feed(99);
  for (int i = 0; i < 20000; ++i) {
    const double v = feed.value();
    ASSERT_EQ(json_number(v), oracle::json_number(v)) << v;
    const std::string s = feed.text(64);
    ASSERT_EQ(json_escape(s), oracle::json_escape(s));
  }
}

}  // namespace
}  // namespace ethergrid::obs
