// Reference model of TraceRecorder's Chrome-trace export: the per-record
// renderer the recorder used before export became one pass into one
// buffer, kept verbatim (snprintf numbers, a temporary string per field,
// a std::set of lanes).  It records the same binary records from the same
// observer callbacks, so a test can feed both recorders one stream and
// require byte-identical JSON.
//
// Known difference: json_number renders into a 64-byte buffer, so
// doubles of 1e56 and more come out truncated here; the recorder prints
// them in full.  Differential feeds keep |value| below 2^63, where the
// old formatter is exact and well defined.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/observer.hpp"
#include "obs/site.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace ethergrid::obs::oracle {

inline std::string json_escape(std::string_view text) {
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

inline std::string json_number(double value) {
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

class TraceRenderOracle final : public Observer {
 public:
  explicit TraceRenderOracle(std::string process_name = "ethergrid",
                             int pid = 1)
      : process_name_(std::move(process_name)), pid_(pid) {}

  void on_span_end(const Span& span) override {
    Rec& rec = recs_.emplace_back();
    rec.id = span.id;
    rec.parent = span.parent;
    rec.track = span.track;
    rec.ts = span.start.time_since_epoch().count();
    rec.dur = span.end.time_since_epoch().count() - rec.ts;
    if (rec.dur < 0) rec.dur = 0;
    rec.backoff_us = span.backoff.count();
    rec.name = intern_name(span.name);
    rec.line = span.line;
    rec.attempts = span.attempts;
    rec.kind = static_cast<std::uint8_t>(span.kind);
    rec.status = static_cast<std::uint8_t>(span.status.code());
    if (span.status.failed() && !span.status.message().empty()) {
      rec.error_off = arena_add(span.status.message(), &rec.error_len);
    }
    if (!span.detail.empty()) {
      rec.detail_off = arena_add(span.detail, &rec.detail_len);
    }
  }

  void on_event(const ObsEvent& event) override {
    Rec& rec = recs_.emplace_back();
    rec.instant = true;
    rec.id = event.span;
    rec.ts = event.time.time_since_epoch().count();
    rec.name = event.site;
    rec.kind = static_cast<std::uint8_t>(event.kind);
    rec.value = event.value;
    if (!event.detail.empty()) {
      rec.detail_off = arena_add(event.detail, &rec.detail_len);
    }
  }

  std::string to_json() const {
    std::string out = "{\"traceEvents\":[\n";
    out += "{\"ph\":\"M\",\"pid\":";
    out += json_number(static_cast<double>(pid_));
    out += ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    out += json_escape(process_name_);
    out += "\"}}";
    // Name each lane that appears, in sorted order for stable output.
    std::set<std::uint64_t> tracks;
    for (const Rec& rec : recs_) tracks.insert(rec.track);
    for (std::uint64_t track : tracks) {
      out += ",\n{\"ph\":\"M\",\"pid\":";
      out += json_number(static_cast<double>(pid_));
      out += ",\"tid\":";
      out += json_number(static_cast<double>(track));
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      out += track == 0 ? "main"
                        : "lane " + json_number(static_cast<double>(track));
      out += "\"}}";
    }
    for (const Rec& rec : recs_) render(rec, &out);
    out += "\n]}\n";
    return out;
  }

 private:
  struct Rec {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t track = 0;
    std::int64_t ts = 0;
    std::int64_t dur = 0;
    std::int64_t backoff_us = 0;
    double value = 0;
    std::uint32_t name = 0;
    std::uint32_t detail_off = 0;
    std::uint32_t detail_len = 0;
    std::uint32_t error_off = 0;
    std::uint32_t error_len = 0;
    std::int32_t line = 0;
    std::int32_t attempts = 0;
    std::uint8_t kind = 0;
    std::uint8_t status = 0;
    bool instant = false;
  };

  static void append_kv(std::string* out, std::string_view key,
                        std::string_view value) {
    out->append(out->empty() ? "\"" : ",\"");
    out->append(key);
    out->append("\":\"");
    out->append(json_escape(value));
    out->push_back('"');
  }

  static void append_kv_num(std::string* out, std::string_view key,
                            double value) {
    out->append(out->empty() ? "\"" : ",\"");
    out->append(key);
    out->append("\":");
    out->append(json_number(value));
  }

  std::uint32_t arena_add(std::string_view text, std::uint32_t* len) {
    const auto off = static_cast<std::uint32_t>(arena_.size());
    arena_.append(text);
    *len = static_cast<std::uint32_t>(text.size());
    return off;
  }

  std::uint32_t intern_name(std::string_view name) {
    if (name.empty()) return 0;
    auto it = name_ids_.find(name);
    if (it != name_ids_.end()) return it->second;
    names_.emplace_back(name);
    const auto id = static_cast<std::uint32_t>(names_.size());
    name_ids_.emplace(names_.back(), id);
    return id;
  }

  void render(const Rec& rec, std::string* out) const {
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
                  std::string_view(arena_.data() + rec.error_off,
                                   rec.error_len));
      }
      if (rec.attempts != 0) append_kv_num(&args, "attempts", rec.attempts);
      if (rec.backoff_us != 0) {
        append_kv_num(&args, "backoff_s",
                      to_seconds(Duration(rec.backoff_us)));
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

  std::string process_name_;
  int pid_ = 1;
  std::vector<Rec> recs_;
  std::string arena_;
  std::deque<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
};

}  // namespace ethergrid::obs::oracle
