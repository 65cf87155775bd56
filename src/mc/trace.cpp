#include "mc/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace ethergrid::mc {

namespace {

constexpr const char* kMagic = "ethergrid-mc-trace v2";
constexpr const char* kMagicV1 = "ethergrid-mc-trace v1";

}  // namespace

std::string format_trace(const TraceFile& trace) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += "scenario " + trace.scenario + "\n";
  out += "seed " + std::to_string(trace.seed) + "\n";
  if (!trace.violation.empty()) {
    out += "violation " + trace.violation + "\n";
  }
  for (const Decision& d : trace.decisions) {
    out += "d ";
    out += choice_kind_name(d.kind);
    out += ' ' + std::to_string(d.chosen) + ' ' + std::to_string(d.arity) +
           ' ' + d.site + ' ' + d.label + '\n';
  }
  out += "end\n";
  return out;
}

Status parse_trace(const std::string& text, TraceFile* out) {
  *out = TraceFile{};
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    return Status::failure("trace line " + std::to_string(line_no) + ": " +
                           what);
  };
  if (!std::getline(in, line)) return Status::failure("trace: empty input");
  ++line_no;
  if (line == kMagicV1) {
    return fail("v1 traces are no longer read (they name an event queue); "
                "delete the `queue` line and change the magic to \"" +
                std::string(kMagic) + "\"");
  }
  if (line != kMagic) return fail("bad magic (expected \"" +
                                  std::string(kMagic) + "\")");
  bool saw_end = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
      break;
    }
    if (key == "scenario") {
      fields >> out->scenario;
      if (out->scenario.empty()) return fail("scenario: missing name");
    } else if (key == "seed") {
      if (!(fields >> out->seed)) return fail("seed: expected an integer");
    } else if (key == "violation") {
      fields >> out->violation;
      if (out->violation.empty()) return fail("violation: missing name");
    } else if (key == "d") {
      Decision d;
      std::string kind;
      if (!(fields >> kind >> d.chosen >> d.arity >> d.site)) {
        return fail("decision: expected `d <kind> <chosen> <arity> <site> "
                    "<label>`");
      }
      if (kind == "sched") {
        d.kind = ChoicePoint::Kind::kSchedule;
      } else if (kind == "fault") {
        d.kind = ChoicePoint::Kind::kFault;
      } else {
        return fail("decision: unknown kind \"" + kind + "\"");
      }
      if (d.arity == 0 || d.chosen >= d.arity) {
        return fail("decision: chosen " + std::to_string(d.chosen) +
                    " out of range for arity " + std::to_string(d.arity));
      }
      // The label is the remainder of the line (may contain spaces).
      std::getline(fields, d.label);
      if (!d.label.empty() && d.label[0] == ' ') d.label.erase(0, 1);
      out->decisions.push_back(std::move(d));
    }
    // Unknown keys are skipped for forward compatibility.
  }
  if (!saw_end) return Status::failure("trace: missing `end` terminator");
  if (out->scenario.empty()) {
    return Status::failure("trace: missing `scenario` header");
  }
  return Status::success();
}

Status write_trace_file(const std::string& path, const TraceFile& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::io_error("cannot open for write: " + path);
  out << format_trace(trace);
  out.flush();
  if (!out) return Status::io_error("write failed: " + path);
  return Status::success();
}

Status read_trace_file(const std::string& path, TraceFile* out) {
  std::ifstream in(path);
  if (!in) return Status::io_error("cannot open: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace(text.str(), out);
}

}  // namespace ethergrid::mc
