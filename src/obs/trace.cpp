#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>

namespace ethergrid::obs {
namespace {

std::int64_t to_micros(TimePoint t) { return t.time_since_epoch().count(); }

// The one JSON formatter.  It renders into a fixed chunk and appends the
// chunk to the output string whenever it fills and on flush(), so a field
// costs a bounds check and a memcpy rather than a std::string::append
// call.  Output is complete only after flush().
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}
  // pos_ points into this writer's own buf_.
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void raw(std::string_view text) {
    if (text.size() > room()) {
      flush();
      if (text.size() > kChunk) {
        out_->append(text);
        return;
      }
    }
    std::memcpy(pos_, text.data(), text.size());
    pos_ += text.size();
  }

  void raw(char c) {
    if (room() == 0) flush();
    *pos_++ = c;
  }

  template <typename Int>
  void integer(Int value) {
    static_assert(std::is_integral_v<Int>);
    reserve(kMaxInteger);
    pos_ = std::to_chars(pos_, pos_ + kMaxInteger, value).ptr;
  }

  // Integers print without a decimal point, everything else with up to 6
  // fractional digits, trailing zeros trimmed; NaN and infinities print 0.
  void number(double value) {
    if (!std::isfinite(value)) {
      raw('0');
      return;
    }
    if (value >= -0x1p63 && value < 0x1p63 &&
        value == static_cast<double>(static_cast<std::int64_t>(value))) {
      integer(static_cast<std::int64_t>(value));
      return;
    }
    reserve(kMaxFixed);
    char* end = std::to_chars(pos_, pos_ + kMaxFixed, value,
                              std::chars_format::fixed, 6)
                    .ptr;
    while (end[-1] == '0') --end;  // stops at the decimal point
    if (end[-1] == '.') --end;
    pos_ = end;
  }

  // Escapes quote, backslash and control bytes; runs of other bytes are
  // copied in bulk.
  void escaped(std::string_view text) {
    static constexpr char kHex[] = "0123456789abcdef";
    const char* run = text.data();
    const char* const end = text.data() + text.size();
    for (const char* p = run; p != end; ++p) {
      const auto c = static_cast<unsigned char>(*p);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      raw(std::string_view(run, static_cast<std::size_t>(p - run)));
      run = p + 1;
      switch (c) {
        case '"':
          raw("\\\"");
          break;
        case '\\':
          raw("\\\\");
          break;
        case '\n':
          raw("\\n");
          break;
        case '\r':
          raw("\\r");
          break;
        case '\t':
          raw("\\t");
          break;
        default: {
          const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xf]};
          raw(std::string_view(escape, sizeof(escape)));
        }
      }
    }
    raw(std::string_view(run, static_cast<std::size_t>(end - run)));
  }

  void quoted(std::string_view text) {
    raw('"');
    escaped(text);
    raw('"');
  }

  // Trace integers (ids, lanes, microseconds) have always been rendered
  // as doubles.  Up to 2^53 that is exact, so they print directly; beyond
  // it they still go through the double, rounding and all, so the bytes
  // do not depend on which path printed them.
  void exact_integer(std::uint64_t value) {
    if (value <= kExactInDouble) {
      integer(value);
    } else {
      number(static_cast<double>(value));
    }
  }

  void exact_integer(std::int64_t value) {
    const auto exact = static_cast<std::int64_t>(kExactInDouble);
    if (value >= -exact && value <= exact) {
      integer(value);
    } else {
      number(static_cast<double>(value));
    }
  }

  void flush() {
    out_->append(buf_, pos_);
    pos_ = buf_;
  }

 private:
  static constexpr std::size_t kChunk = 4096;
  static constexpr std::size_t kMaxInteger = 24;
  // Fixed notation of the largest double: 309 digits, sign, point, 6 more.
  static constexpr std::size_t kMaxFixed = 320;
  static constexpr std::uint64_t kExactInDouble = std::uint64_t{1} << 53;

  std::size_t room() const {
    return static_cast<std::size_t>(buf_ + kChunk - pos_);
  }
  void reserve(std::size_t n) {
    if (room() < n) flush();
  }

  std::string* out_;
  char buf_[kChunk];
  char* pos_ = buf_;
};

// Bytes a record writes besides its name fragment and payload strings,
// with every optional field present at typical widths (12-digit
// timestamps, 6-digit ids).  to_json() reserves its buffer from these; a
// record that needs more only makes the string grow.
constexpr std::size_t kSpanBytes = 224;
constexpr std::size_t kInstantBytes = 128;
constexpr std::size_t kLaneBytes = 128;
constexpr std::size_t kHeaderBytes = 128;

}  // namespace

void append_json_escaped(std::string* out, std::string_view text) {
  JsonWriter w(out);
  w.escaped(text);
  w.flush();
}

void append_json_number(std::string* out, double value) {
  JsonWriter w(out);
  w.number(value);
  w.flush();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(&out, text);
  return out;
}

std::string json_number(double value) {
  std::string out;
  append_json_number(&out, value);
  return out;
}

TraceRecorder::TraceRecorder(std::string process_name, int pid)
    : process_name_(std::move(process_name)),
      pid_(pid),
      key_counts_(kKeySlots) {}

TraceRecorder::Rec& TraceRecorder::append_locked(std::uint32_t name,
                                                 std::uint8_t kind,
                                                 bool instant,
                                                 std::uint64_t track) {
  // Consecutive records mostly share a lane, so the set is searched only
  // when the lane changes.
  if (size_ == 0 || track != blocks_.back()[(size_ - 1) % kBlockRecs].track) {
    const auto it = std::lower_bound(lanes_.begin(), lanes_.end(), track);
    if (it == lanes_.end() || *it != track) lanes_.insert(it, track);
  }
  const std::size_t slot = size_ % kBlockRecs;
  if (slot == 0) {
    blocks_.push_back(std::make_unique<Rec[]>(kBlockRecs));
  }
  ++size_;
  Rec& rec = blocks_.back()[slot];
  rec = Rec{};
  rec.name = name;
  rec.kind = kind;
  rec.instant = instant;
  rec.track = track;
  ++key_counts_[key_of(rec)];
  return rec;
}

std::uint32_t TraceRecorder::arena_add_locked(std::string_view text,
                                              std::uint32_t* len) {
  const std::uint32_t off = static_cast<std::uint32_t>(arena_.size());
  arena_.append(text);
  *len = static_cast<std::uint32_t>(text.size());
  return off;
}

std::uint32_t TraceRecorder::intern_name_locked(std::string_view name) {
  if (name.empty()) return 0;
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  names_.emplace_back(name);
  const std::uint32_t id = static_cast<std::uint32_t>(names_.size());
  name_ids_.emplace(names_.back(), id);
  key_counts_.resize(key_counts_.size() + kKeySlots);
  return id;
}

std::uint32_t TraceRecorder::site_name_locked(SiteId site) {
  if (site == kSiteNone) return 0;
  const auto [it, fresh] = site_names_.try_emplace(site, 0);
  if (fresh) it->second = intern_name_locked(site_name(site));
  return it->second;
}

// Begins are not serialized -- the complete ("X") entry carries start and
// duration and is appended at end time, which is when status/attempts are
// known.  Only the counter moves here.
void TraceRecorder::on_span_begin(const Span& span) {
  (void)span;
  spans_.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::on_span_end(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  Rec& rec = append_locked(intern_name_locked(span.name),
                           static_cast<std::uint8_t>(span.kind),
                           /*instant=*/false, span.track);
  rec.id = span.id;
  rec.parent = span.parent;
  rec.ts = to_micros(span.start);
  rec.dur = to_micros(span.end) - rec.ts;
  if (rec.dur < 0) rec.dur = 0;
  rec.backoff_us = span.backoff.count();
  rec.line = span.line;
  rec.attempts = span.attempts;
  rec.status = static_cast<std::uint8_t>(span.status.code());
  if (span.status.failed() && !span.status.message().empty()) {
    rec.error_off = arena_add_locked(span.status.message(), &rec.error_len);
  }
  if (!span.detail.empty()) {
    rec.detail_off = arena_add_locked(span.detail, &rec.detail_len);
  }
}

void TraceRecorder::on_event(const ObsEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  Rec& rec = append_locked(site_name_locked(event.site),
                           static_cast<std::uint8_t>(event.kind),
                           /*instant=*/true, /*track=*/0);
  rec.id = event.span;
  rec.ts = to_micros(event.time);
  rec.value = event.value;
  if (!event.detail.empty()) {
    rec.detail_off = arena_add_locked(event.detail, &rec.detail_len);
  }
  events_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t TraceRecorder::span_count() const {
  return spans_.load(std::memory_order_relaxed);
}

std::size_t TraceRecorder::event_count() const {
  return events_.load(std::memory_order_relaxed);
}

std::string TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto rec_at = [this](std::size_t i) -> const Rec& {
    return blocks_[i / kBlockRecs][i % kBlockRecs];
  };

  // The `,"name":"kind: extra"` fragment of every key that occurs, escaped
  // once into fragment_text, and the size of the whole export.
  struct Fragment {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };
  std::vector<Fragment> fragments(key_counts_.size());
  std::string fragment_text;
  std::size_t bytes = kHeaderBytes + 6 * process_name_.size() +
                      arena_.size() + lanes_.size() * kLaneBytes;
  for (std::size_t key = 0; key < key_counts_.size(); ++key) {
    if (key_counts_[key] == 0) continue;
    const std::size_t name = key / kKeySlots;
    const std::size_t slot = key % kKeySlots;
    const bool instant = slot >= kSpanKindCount;
    const std::string_view kind =
        instant ? obs_event_kind_name(
                      static_cast<ObsEvent::Kind>(slot - kSpanKindCount))
                : span_kind_name(static_cast<SpanKind>(slot));
    Fragment& fragment = fragments[key];
    fragment.off = static_cast<std::uint32_t>(fragment_text.size());
    JsonWriter w(&fragment_text);
    w.raw(",\"name\":\"");
    w.escaped(kind);
    if (name != 0) {
      w.raw(": ");
      w.escaped(names_[name - 1]);
    }
    w.raw('"');
    w.flush();
    fragment.len =
        static_cast<std::uint32_t>(fragment_text.size()) - fragment.off;
    bytes += key_counts_[key] *
             ((instant ? kInstantBytes : kSpanBytes) + fragment.len);
  }

  std::string out;
  out.reserve(bytes);
  JsonWriter w(&out);
  w.raw("{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":");
  w.integer(pid_);
  w.raw(",\"name\":\"process_name\",\"args\":{\"name\":");
  w.quoted(process_name_);
  w.raw("}}");
  // Name each lane that appears, in sorted order for stable output.
  for (std::uint64_t track : lanes_) {
    w.raw(",\n{\"ph\":\"M\",\"pid\":");
    w.integer(pid_);
    w.raw(",\"tid\":");
    w.exact_integer(track);
    w.raw(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    if (track == 0) {
      w.raw("main");
    } else {
      w.raw("lane ");
      w.exact_integer(track);
    }
    w.raw("\"}}");
  }

  // Spans are complete ("X") entries; instants carry the thread scope.  The
  // "args" object opens with its first key and is left out when empty.
  for (std::size_t i = 0; i < size_; ++i) {
    const Rec& rec = rec_at(i);
    w.raw(rec.instant ? ",\n{\"ph\":\"i\",\"pid\":"
                      : ",\n{\"ph\":\"X\",\"pid\":");
    w.integer(pid_);
    w.raw(",\"tid\":");
    w.exact_integer(rec.track);
    w.raw(",\"ts\":");
    w.exact_integer(rec.ts);
    if (rec.instant) {
      w.raw(",\"s\":\"t\"");
    } else {
      w.raw(",\"dur\":");
      w.exact_integer(rec.dur);
    }
    const Fragment name = fragments[key_of(rec)];
    w.raw(std::string_view(fragment_text.data() + name.off, name.len));

    bool args = false;
    const auto key = [&w, &args](std::string_view k) {
      w.raw(args ? std::string_view(",\"") : std::string_view(",\"args\":{\""));
      args = true;
      w.raw(k);
      w.raw("\":");
    };
    if (rec.instant) {
      if (rec.id != 0) {
        key("span");
        w.exact_integer(rec.id);
      }
      if (rec.value != 0) {
        key("value");
        w.number(rec.value);
      }
    } else {
      key("span");
      w.exact_integer(rec.id);
      if (rec.parent != 0) {
        key("parent");
        w.exact_integer(rec.parent);
      }
      if (rec.line != 0) {
        key("line");
        w.integer(rec.line);
      }
      key("status");
      w.quoted(status_code_name(static_cast<StatusCode>(rec.status)));
      if (rec.error_len != 0) {
        key("error");
        w.quoted(std::string_view(arena_.data() + rec.error_off,
                                  rec.error_len));
      }
      if (rec.attempts != 0) {
        key("attempts");
        w.integer(rec.attempts);
      }
      if (rec.backoff_us != 0) {
        key("backoff_s");
        w.number(to_seconds(Duration(rec.backoff_us)));
      }
    }
    if (rec.detail_len != 0) {
      key("detail");
      w.quoted(std::string_view(arena_.data() + rec.detail_off,
                                rec.detail_len));
    }
    w.raw(args ? std::string_view("}}") : std::string_view("}"));
  }
  w.raw("\n]}\n");
  w.flush();
  return out;
}

std::string merge_chrome_traces(const std::vector<std::string>& traces) {
  static constexpr std::string_view kPrefix = "{\"traceEvents\":[\n";
  static constexpr std::string_view kSuffix = "\n]}\n";
  std::size_t bytes = kPrefix.size() + kSuffix.size();
  for (const std::string& trace : traces) bytes += trace.size();
  std::string out;
  out.reserve(bytes);
  out.append(kPrefix);
  bool first = true;
  for (const std::string& trace : traces) {
    std::string_view inner = trace;
    if (inner.size() < kPrefix.size() + kSuffix.size()) continue;
    if (inner.substr(0, kPrefix.size()) != kPrefix) continue;
    if (inner.substr(inner.size() - kSuffix.size()) != kSuffix) continue;
    inner.remove_prefix(kPrefix.size());
    inner.remove_suffix(kSuffix.size());
    if (inner.empty()) continue;
    if (!first) out += ",\n";
    out += inner;
    first = false;
  }
  out += kSuffix;
  return out;
}

Status TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::io_error("cannot open trace file: " + path);
  out << to_json();
  out.flush();
  if (!out) return Status::io_error("short write to trace file: " + path);
  return Status::success();
}

}  // namespace ethergrid::obs
