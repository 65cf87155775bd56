// Golden trace export: a TraceRecorder fed directly with a fixed stream of
// spans and instants must export exactly the bytes in
// tests/obs/golden/trace_export.json.  The feed reaches every branch of
// the exporter: several lanes (0, small, and one past 2^53), spans with
// and without parent, line, error, attempts, backoff and detail, a span
// without a name, a negative duration, instants with and without span,
// value, site and detail, and payloads that need escaping (quotes,
// backslashes, control bytes, high bytes, a process name with a quote).
//
// On a mismatch the actual export is written to
// trace_golden.actual.json in the working directory; diff it against the
// golden file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/site.hpp"
#include "obs/trace.hpp"

namespace ethergrid::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TimePoint at(std::int64_t us) { return TimePoint{} + Duration(us); }

Span span(std::uint64_t id, std::uint64_t parent, SpanKind kind,
          std::string_view name, std::int64_t start, std::int64_t end,
          std::uint64_t track) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.kind = kind;
  s.name = name;
  s.start = at(start);
  s.end = at(end);
  s.track = track;
  return s;
}

ObsEvent event(ObsEvent::Kind kind, std::int64_t time, std::uint64_t in_span,
               SiteId site, std::string_view detail, double value) {
  ObsEvent e;
  e.kind = kind;
  e.time = at(time);
  e.span = in_span;
  e.site = site;
  e.detail = detail;
  e.value = value;
  return e;
}

std::string golden_export() {
  TraceRecorder trace("golden \"ftsh\"\trun", 7);
  constexpr std::uint64_t kFarLane = (std::uint64_t{1} << 53) + 3;

  // A bare script span: no parent, line, error, attempts, backoff, detail.
  Span script = span(1, 0, SpanKind::kScript, "", 0, 90'000'000, 0);
  // A command with every optional field but backoff and attempts.
  Span cmd = span(4, 3, SpanKind::kCommand, "wget \"http://x/y\"", 1'000,
                  2'501'000, 0);
  cmd.detail = "wget \"http://x/y\"\n\t-O out\\file";
  cmd.line = 3;
  cmd.status = Status::unavailable("mirror \"busy\"\x01 at\\path");
  trace.on_span_begin(cmd);
  trace.on_span_end(cmd);
  trace.on_event(event(ObsEvent::Kind::kBackoff, 2'501'000, 2,
                       intern_site("try:2"), "", 1.734215));
  // An attempt on lane 3 that succeeded; a failed try with attempts and a
  // fractional backoff.
  Span attempt = span(5, 2, SpanKind::kTryAttempt, "attempt 2", 4'235'215,
                      4'300'000, 3);
  attempt.line = 2;
  trace.on_span_end(attempt);
  Span try_span = span(2, 1, SpanKind::kTry, "try 5 times", 1'000, 4'300'000,
                       3);
  try_span.line = 2;
  try_span.status = Status::timeout("");  // failed, no message
  try_span.attempts = 2;
  try_span.backoff = Duration(1'734'215);
  trace.on_span_end(try_span);
  // Instants: no span and no value; a span, a negative fractional value
  // and a detail with a high byte; a site never interned; a big value.
  trace.on_event(event(ObsEvent::Kind::kCollision, 5'000'000, 0,
                       intern_site("schedd.submit"), "", 0));
  trace.on_event(event(ObsEvent::Kind::kFlowShare, 5'000'001, 9,
                       intern_site("fluid \"link\""), "caf\xc3\xa9 share",
                       -0.125));
  trace.on_event(event(ObsEvent::Kind::kKill, 6'000'000, 4, 0xfffffff0u,
                       "sig\x1fterm", 0.000001));
  trace.on_event(event(ObsEvent::Kind::kOccupancy, 6'000'000, 0, kSiteNone,
                       "", 1e19));
  // A forall on a far lane (ids and lanes past 2^53 render through the
  // double path) with a process child; a process whose end precedes its
  // start renders dur 0.
  Span forall = span(kFarLane, 1, SpanKind::kForall, "forall part",
                     7'000'000, 9'000'000, kFarLane);
  forall.detail = "4 branches";
  forall.line = 8;
  forall.attempts = 4;
  forall.status = Status::failure("forall at line 8 failed: part failed");
  Span process = span(11, kFarLane, SpanKind::kProcess, "ftsh", 8'000'000,
                      7'999'999, 1);
  process.status = Status::killed("killed");
  trace.on_span_end(process);
  trace.on_span_end(forall);
  // Every remaining span kind, reusing one name across kinds.
  int id = 20;
  for (SpanKind kind : {SpanKind::kStatement, SpanKind::kForany,
                        SpanKind::kFunction, SpanKind::kProcess}) {
    Span s = span(++id, 1, kind, "shared", 9'000'000, 9'000'500, 2);
    s.backoff = Duration(3'000'000);
    trace.on_span_end(s);
  }
  trace.on_span_end(script);
  return trace.to_json();
}

TEST(TraceGoldenTest, ExportMatchesGoldenBytes) {
  const std::string path =
      std::string(ETHERGRID_SOURCE_DIR) + "/tests/obs/golden/trace_export.json";
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "cannot read " << path;
  const std::string actual = golden_export();
  if (actual != golden) {
    std::ofstream("trace_golden.actual.json", std::ios::binary) << actual;
  }
  EXPECT_EQ(actual, golden)
      << "trace export changed; see trace_golden.actual.json";
}

}  // namespace
}  // namespace ethergrid::obs
