#include "obs/trace.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

namespace ethergrid::obs {
namespace {

std::int64_t to_micros(TimePoint t) { return t.time_since_epoch().count(); }

void append_kv(std::string* out, std::string_view key, std::string_view value) {
  out->append(out->empty() ? "\"" : ",\"");
  out->append(key);
  out->append("\":\"");
  out->append(json_escape(value));
  out->push_back('"');
}

void append_kv_num(std::string* out, std::string_view key, double value) {
  out->append(out->empty() ? "\"" : ",\"");
  out->append(key);
  out->append("\":");
  out->append(json_number(value));
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  std::string out = buf;
  while (!out.empty() && out.back() == '0') out.pop_back();
  if (!out.empty() && out.back() == '.') out.pop_back();
  return out;
}

TraceRecorder::TraceRecorder(std::string process_name, int pid)
    : process_name_(std::move(process_name)), pid_(pid) {}

TraceRecorder::Rec& TraceRecorder::append_locked() {
  const std::size_t slot = size_ % kBlockRecs;
  if (slot == 0) {
    blocks_.push_back(std::make_unique<Rec[]>(kBlockRecs));
  }
  ++size_;
  Rec& rec = blocks_.back()[slot];
  rec = Rec{};
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
  return id;
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
  Rec& rec = append_locked();
  rec.id = span.id;
  rec.parent = span.parent;
  rec.track = span.track;
  rec.ts = to_micros(span.start);
  rec.dur = to_micros(span.end) - rec.ts;
  if (rec.dur < 0) rec.dur = 0;
  rec.backoff_us = span.backoff.count();
  rec.name = intern_name_locked(span.name);
  rec.line = span.line;
  rec.attempts = span.attempts;
  rec.kind = static_cast<std::uint8_t>(span.kind);
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
  Rec& rec = append_locked();
  rec.instant = true;
  rec.id = event.span;
  rec.ts = to_micros(event.time);
  rec.name = event.site;
  rec.kind = static_cast<std::uint8_t>(event.kind);
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

// Renders one record exactly as the eager pre-rendered path used to: the
// byte-identical-across-kernel-configurations contract covers the
// serialized form, so the deferred path must not reorder or reformat
// anything.
void TraceRecorder::render(const Rec& rec, std::string* out) const {
  std::string name;
  std::string_view extra;
  if (rec.instant) {
    name = obs_event_kind_name(static_cast<ObsEvent::Kind>(rec.kind));
    extra = site_name(rec.name);
  } else {
    name = span_kind_name(static_cast<SpanKind>(rec.kind));
    if (rec.name != 0) extra = names_[rec.name - 1];
  }
  if (!extra.empty()) {
    name += ": ";
    name += extra;
  }
  const std::string_view detail(arena_.data() + rec.detail_off,
                                rec.detail_len);

  std::string args;
  if (rec.instant) {
    if (rec.id != 0) {
      append_kv_num(&args, "span", static_cast<double>(rec.id));
    }
    if (rec.value != 0) append_kv_num(&args, "value", rec.value);
    if (!detail.empty()) append_kv(&args, "detail", detail);
  } else {
    append_kv_num(&args, "span", static_cast<double>(rec.id));
    if (rec.parent != 0) {
      append_kv_num(&args, "parent", static_cast<double>(rec.parent));
    }
    if (rec.line != 0) append_kv_num(&args, "line", rec.line);
    const StatusCode code = static_cast<StatusCode>(rec.status);
    append_kv(&args, "status",
              code == StatusCode::kOk ? "OK" : status_code_name(code));
    if (rec.error_len != 0) {
      append_kv(&args, "error",
                std::string_view(arena_.data() + rec.error_off, rec.error_len));
    }
    if (rec.attempts != 0) append_kv_num(&args, "attempts", rec.attempts);
    if (rec.backoff_us != 0) {
      append_kv_num(&args, "backoff_s", to_seconds(Duration(rec.backoff_us)));
    }
    if (!detail.empty()) append_kv(&args, "detail", detail);
  }

  out->append(",\n{\"ph\":\"");
  out->push_back(rec.instant ? 'i' : 'X');
  out->append("\",\"pid\":");
  out->append(json_number(static_cast<double>(pid_)));
  out->append(",\"tid\":");
  out->append(json_number(static_cast<double>(rec.track)));
  out->append(",\"ts\":");
  out->append(json_number(static_cast<double>(rec.ts)));
  if (!rec.instant) {
    out->append(",\"dur\":");
    out->append(json_number(static_cast<double>(rec.dur)));
  } else {
    out->append(",\"s\":\"t\"");
  }
  out->append(",\"name\":\"");
  out->append(json_escape(name));
  out->push_back('"');
  if (!args.empty()) {
    out->append(",\"args\":{");
    out->append(args);
    out->push_back('}');
  }
  out->push_back('}');
}

std::string TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":";
  out += json_number(static_cast<double>(pid_));
  out += ",\"name\":\"process_name\",\"args\":{\"name\":\"";
  out += json_escape(process_name_);
  out += "\"}}";
  // Name each lane that appears, in sorted order for stable output.
  std::set<std::uint64_t> tracks;
  for (std::size_t i = 0; i < size_; ++i) {
    tracks.insert(blocks_[i / kBlockRecs][i % kBlockRecs].track);
  }
  for (std::uint64_t track : tracks) {
    out += ",\n{\"ph\":\"M\",\"pid\":";
    out += json_number(static_cast<double>(pid_));
    out += ",\"tid\":";
    out += json_number(static_cast<double>(track));
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    out += track == 0 ? "main" : "lane " + json_number(static_cast<double>(track));
    out += "\"}}";
  }
  for (std::size_t i = 0; i < size_; ++i) {
    render(blocks_[i / kBlockRecs][i % kBlockRecs], &out);
  }
  out += "\n]}\n";
  return out;
}

std::string merge_chrome_traces(const std::vector<std::string>& traces) {
  static constexpr std::string_view kPrefix = "{\"traceEvents\":[\n";
  static constexpr std::string_view kSuffix = "\n]}\n";
  std::string out{kPrefix};
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
