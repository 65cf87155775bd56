// TraceRecorder: span-based execution traces exported as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Spans become "X" (complete) events with microsecond ts/dur; point events
// (backoff, collision, fault, ...) become "i" (instant) events.  The track
// field of a span selects the tid lane, so concurrent forall branches
// render as parallel rows instead of one self-overlapping bar.
//
// Recording is allocation-light by design: each emission appends one
// fixed-size binary record to a growable list of 1024-record blocks (one
// allocation per block, never a copy of existing records).  Span names and
// event sites share one recorder-local name table (an event's SiteId is
// resolved once per recorder), and variable payloads (details, error
// messages) are copied into a byte arena.  Emission also keeps what the
// export needs to size itself: the sorted set of lanes, and a count of
// records per (name, kind) key in a dense table.  ALL JSON work --
// escaping, number formatting, metadata rows -- is deferred to to_json(),
// so the emission path touches the allocator only when a block, the
// arena, the name table or the lane set actually grows.
//
// Export is one rendering pass over the records, straight into a string
// reserved from the per-key counts and the arena size.  Each key's name
// fragment is escaped once per export, not once per record, so the number
// of allocations an export makes does not depend on the number of
// records.
//
// Export is deterministic: entries are written in emission order, all
// numbers are integers (virtual microseconds) or shortest-form doubles, and
// no wall-clock or host state leaks into the output.  A fixed-seed sim run
// therefore produces byte-identical JSON on every run and build -- pinned
// by hash in tests/sim/backend_equivalence_test.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/observer.hpp"
#include "util/status.hpp"

namespace ethergrid::obs {

class TraceRecorder final : public Observer {
 public:
  // process_name labels the Perfetto process row ("ftsh", "gridsim").
  // pid separates process rows when several recorders' exports are merged
  // into one document (merge_chrome_traces below; the sharded scenarios
  // use pid = shard index + 1).
  explicit TraceRecorder(std::string process_name = "ethergrid", int pid = 1);

  void on_span_begin(const Span& span) override;
  void on_span_end(const Span& span) override;
  void on_event(const ObsEvent& event) override;

  std::size_t span_count() const;
  std::size_t event_count() const;

  // The full trace as a JSON object {"traceEvents":[...]}.  Safe to call
  // repeatedly; the trace keeps accumulating.
  std::string to_json() const;

  // Writes to_json() to `path` (overwrite).
  Status write_file(const std::string& path) const;

 private:
  // One emission, binary.  `name` is a 1-based index into names_ (0 = no
  // extra name): a span's name or an instant's site.  Payload strings
  // live in arena_ as (offset, length); offsets are 32-bit, capping one
  // recorder's payload bytes at 4 GiB -- far beyond any trace we render.
  struct Rec {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t track = 0;
    std::int64_t ts = 0;          // microseconds
    std::int64_t dur = 0;         // microseconds (complete events)
    std::int64_t backoff_us = 0;  // try spans
    double value = 0;             // instants
    std::uint32_t name = 0;
    std::uint32_t detail_off = 0;
    std::uint32_t detail_len = 0;
    std::uint32_t error_off = 0;
    std::uint32_t error_len = 0;
    std::int32_t line = 0;
    std::int32_t attempts = 0;
    std::uint8_t kind = 0;     // SpanKind or ObsEvent::Kind value
    std::uint8_t status = 0;   // StatusCode value (spans)
    bool instant = false;
  };

  static constexpr std::size_t kBlockRecs = 1024;
  // A key's slot within its name's row of key_counts_: the span kind, or
  // kSpanKindCount plus the event kind.
  static constexpr std::size_t kKeySlots =
      kSpanKindCount + kObsEventKindCount;

  static std::size_t key_of(const Rec& rec) {
    return rec.name * kKeySlots +
           (rec.instant ? kSpanKindCount + rec.kind : rec.kind);
  }

  // Returns the next free record slot, counted under its key and lane;
  // `name`, `kind` and `instant` are filled here.
  Rec& append_locked(std::uint32_t name, std::uint8_t kind, bool instant,
                     std::uint64_t track);
  std::uint32_t arena_add_locked(std::string_view text, std::uint32_t* len);
  std::uint32_t intern_name_locked(std::string_view name);
  std::uint32_t site_name_locked(SiteId site);

  mutable std::mutex mu_;
  std::string process_name_;
  int pid_ = 1;
  std::vector<std::unique_ptr<Rec[]>> blocks_;
  std::size_t size_ = 0;  // total records across blocks_
  std::string arena_;     // detail / error payload bytes
  std::deque<std::string> names_;  // span names and sites, 1-based via map
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::unordered_map<SiteId, std::uint32_t> site_names_;  // site -> name id
  // Records per key (name * kKeySlots + slot); one row per name id.
  std::vector<std::size_t> key_counts_;
  std::vector<std::uint64_t> lanes_;  // sorted, distinct tracks
  // Counters are atomic so on_span_begin (which records nothing -- the
  // complete event is appended at end time) never touches the mutex.
  std::atomic<std::size_t> spans_{0};
  std::atomic<std::size_t> events_{0};
};

// Merges several TraceRecorder::to_json() exports into one Chrome-trace
// document, concatenating their traceEvents arrays in argument order.
// Sharded worlds record one per-shard trace lane (distinct pids) and merge
// them in shard order at export, so the merged bytes are deterministic and
// independent of worker-thread scheduling.  Inputs that are not
// TraceRecorder exports are skipped.
std::string merge_chrome_traces(const std::vector<std::string>& traces);

// The JSON formatter shared by the trace and metrics exporters.
//
// append_json_escaped appends `text` escaped for embedding in a JSON
// string literal (no quotes added): quote, backslash and control bytes
// are escaped, every other byte is copied as is.
//
// append_json_number appends the shortest deterministic rendering of a
// double: integers print without a decimal point, everything else with up
// to 6 fractional digits, trailing zeros trimmed; NaN and infinities
// print as 0.
void append_json_escaped(std::string* out, std::string_view text);
void append_json_number(std::string* out, double value);

// The same two renderings as fresh strings.
std::string json_escape(std::string_view text);
std::string json_number(double value);

}  // namespace ethergrid::obs
