// Unit coverage for the trace exporter and the ObserverSet composition:
// JSON helpers, span-id allocation, fan-out order, and the Chrome
// trace-event serialization contract Perfetto relies on.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace ethergrid::obs {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("wget http://host/file"), "wget http://host/file");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndWhitespace) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line1\nline2\ttab\rcr"),
            "line1\\nline2\\ttab\\rcr");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonNumberTest, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(json_number(0), "0");
  EXPECT_EQ(json_number(42), "42");
  EXPECT_EQ(json_number(-3), "-3");
  EXPECT_EQ(json_number(1e6), "1000000");
}

TEST(JsonNumberTest, FractionsTrimTrailingZeros) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.333333");
}

TEST(JsonEscapeTest, PassesDelAndHighBytesThrough) {
  EXPECT_EQ(json_escape("\x7f\x80\xc3\xa9"), "\x7f\x80\xc3\xa9");
}

TEST(JsonNumberTest, NegativeZeroAndTinyValuesPrintAsZero) {
  EXPECT_EQ(json_number(-0.0), "0");
  EXPECT_EQ(json_number(1e-9), "0");
  EXPECT_EQ(json_number(-1e-9), "-0");  // "%.6f" keeps the sign
}

// Beyond int64 every double is integral; it prints in full fixed notation.
// (The snprintf formatter this replaced truncated values of 1e56 and up.)
TEST(JsonNumberTest, HugeValuesPrintEveryDigit) {
  EXPECT_EQ(json_number(1e19), "10000000000000000000");
  EXPECT_EQ(json_number(-0x1p63), "-9223372036854775808");
  EXPECT_EQ(json_number(1e70),
            "10000000000000000725314363815292351261583744096465219555182101554"
            "790400");
  EXPECT_EQ(json_number(std::numeric_limits<double>::max()).size(), 309u);
}

TEST(JsonNumberTest, NonFiniteValuesSerializeAsZero) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

// ---- ObserverSet ----

struct RecordingObserver final : Observer {
  std::vector<std::string> calls;
  std::string tag;
  std::vector<std::string>* shared = nullptr;

  void on_span_begin(const Span& span) override {
    calls.push_back("begin:" + std::string(span.name));
    if (shared) shared->push_back(tag + ".begin");
  }
  void on_span_end(const Span& span) override {
    calls.push_back("end:" + std::string(span.name));
  }
  void on_event(const ObsEvent& event) override {
    calls.push_back("event:" + std::string(site_name(event.site)));
  }
  void on_output(StreamKind stream, std::string_view text) override {
    calls.push_back((stream == StreamKind::kStdout ? "out:" : "err:") +
                    std::string(text));
  }
  void on_log(const ObsLogLine& line) override {
    calls.push_back("log:" + line.message());
  }
};

TEST(ObserverSetTest, AssignsSequentialSpanIds) {
  ObserverSet set;
  Span a, b, c;
  EXPECT_EQ(set.begin_span(a), 1u);
  EXPECT_EQ(set.begin_span(b), 2u);
  EXPECT_EQ(set.begin_span(c), 3u);
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(c.id, 3u);
}

TEST(ObserverSetTest, FansOutEveryCallbackInRegistrationOrder) {
  ObserverSet set;
  std::vector<std::string> order;
  RecordingObserver first, second;
  first.tag = "first";
  first.shared = &order;
  second.tag = "second";
  second.shared = &order;
  set.add(&first);
  set.add(&second);

  Span span;
  span.name = "s";
  set.begin_span(span);
  set.end_span(span);
  ObsEvent event;
  event.site = intern_site("site");
  set.on_event(event);
  set.on_output(StreamKind::kStdout, "x");
  ObsLogLine line;
  line.renderer = [](const void*, std::string* out) { *out += "m"; };
  set.on_log(line);

  const std::vector<std::string> expected = {"begin:s", "end:s", "event:site",
                                             "out:x", "log:m"};
  EXPECT_EQ(first.calls, expected);
  EXPECT_EQ(second.calls, expected);
  const std::vector<std::string> expected_order = {"first.begin",
                                                   "second.begin"};
  EXPECT_EQ(order, expected_order);
}

// A log line's renderer runs once per observer that reads the text, and
// never for observers that ignore logs.
TEST(ObserverSetTest, LogLinesRenderOnlyWhenRead) {
  struct Args {
    int renders = 0;
  } args;
  ObsLogLine line;
  line.renderer = [](const void* a, std::string* out) {
    auto* counted = static_cast<Args*>(const_cast<void*>(a));
    ++counted->renders;
    *out += "rendered";
  };
  line.args = &args;

  ObserverSet set;
  Observer ignores_logs;
  set.add(&ignores_logs);
  set.on_log(line);
  EXPECT_EQ(args.renders, 0);

  RecordingObserver reader;
  set.add(&reader);
  set.on_log(line);
  EXPECT_EQ(args.renders, 1);
  EXPECT_EQ(reader.calls, std::vector<std::string>{"log:rendered"});
}

TEST(ObserverSetTest, RemoveStopsDelivery) {
  ObserverSet set;
  RecordingObserver obs;
  set.add(&obs);
  EXPECT_FALSE(set.empty());
  set.remove(&obs);
  EXPECT_TRUE(set.empty());
  ObsEvent event;
  set.on_event(event);
  EXPECT_TRUE(obs.calls.empty());
}

// ---- TraceRecorder ----

Span make_span() {
  Span span;
  span.id = 7;
  span.parent = 3;
  span.kind = SpanKind::kCommand;
  span.name = "wget mirror";
  span.line = 12;
  span.track = 0;
  span.start = TimePoint{} + msec(1500);
  span.end = TimePoint{} + msec(2250);
  span.status = Status::success();
  return span;
}

TEST(TraceRecorderTest, CompleteEventCarriesSpanFields) {
  TraceRecorder recorder("unit");
  recorder.on_span_begin(make_span());
  recorder.on_span_end(make_span());
  EXPECT_EQ(recorder.span_count(), 1u);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"command: wget mirror\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);  // microseconds
  EXPECT_NE(json.find("\"dur\":750000"), std::string::npos);
  EXPECT_NE(json.find("\"span\":7"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":3"), std::string::npos);
  EXPECT_NE(json.find("\"line\":12"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"OK\""), std::string::npos);
}

TEST(TraceRecorderTest, FailedSpanCarriesErrorMessage) {
  TraceRecorder recorder;
  Span span = make_span();
  span.status = Status::timeout("deadline blown");
  recorder.on_span_end(span);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"status\":\"TIMEOUT\""), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"deadline blown\""), std::string::npos);
}

TEST(TraceRecorderTest, InstantEventAndProcessMetadata) {
  TraceRecorder recorder("gridsim");
  ObsEvent event;
  event.kind = ObsEvent::Kind::kCollision;
  event.time = TimePoint{} + sec(3);
  event.span = 9;
  event.site = intern_site("schedd.submit");
  event.value = 2.5;
  recorder.on_event(event);
  EXPECT_EQ(recorder.event_count(), 1u);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"collision: schedd.submit\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":2.5"), std::string::npos);
  // Perfetto process row named after the recorder's process_name.
  EXPECT_NE(json.find("\"args\":{\"name\":\"gridsim\"}"), std::string::npos);
}

TEST(TraceRecorderTest, TracksRenderAsNamedLanes) {
  TraceRecorder recorder;
  Span span = make_span();
  span.track = 2;
  recorder.on_span_end(span);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"name\":\"lane 2\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(TraceRecorderTest, SameFeedProducesIdenticalBytes) {
  TraceRecorder a("x"), b("x");
  for (TraceRecorder* r : {&a, &b}) {
    r->on_span_end(make_span());
    ObsEvent event;
    event.kind = ObsEvent::Kind::kBackoff;
    event.value = 0.75;
    r->on_event(event);
  }
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(TraceRecorderTest, WriteFileRoundTrips) {
  TraceRecorder recorder("file");
  recorder.on_span_end(make_span());
  const std::string path =
      ::testing::TempDir() + "/ethergrid_trace_test.json";
  ASSERT_TRUE(recorder.write_file(path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), recorder.to_json());
}

TEST(TraceRecorderTest, WriteFileReportsUnwritablePath) {
  TraceRecorder recorder;
  Status s = recorder.write_file("/no/such/dir/trace.json");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ethergrid::obs
