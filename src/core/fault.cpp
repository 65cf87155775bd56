#include "core/fault.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace ethergrid::core {

FaultInjector::FaultInjector(const sim::FaultPlan& plan, Rng root)
    : plan_(plan),
      root_(root),
      crash_fired_(plan.rules().size(), false) {}

Rng& FaultInjector::site_rng(std::string_view site) {
  auto it = streams_.find(site);
  if (it == streams_.end()) {
    // Derived from the root by name, so the stream a site gets does not
    // depend on which other sites were consulted first.
    it = streams_.emplace(std::string(site), root_.stream(site)).first;
  }
  return it->second;
}

void FaultInjector::record(TimePoint now, std::string_view site,
                           const sim::FaultSpec& spec, std::string detail) {
  FaultEvent event{now, std::string(site),
                   std::string(fault_kind_name(spec.kind)),
                   std::move(detail)};
  events_.push_back(event);
  ++fired_[event.site];
  if (observer_) observer_(event);
}

// Fires rule `index` unconditionally (the strategy already decided) and
// records it.  Mirrors the per-kind bodies of the RNG path below, with the
// one RNG draw (the reset fraction) replaced by the range midpoint.
FaultDecision FaultInjector::fire_rule(std::size_t index,
                                       std::string_view site, TimePoint now) {
  const sim::FaultRule& rule = plan_.rules()[index];
  const sim::FaultSpec& spec = rule.spec;
  FaultDecision decision;
  switch (spec.kind) {
    case sim::FaultSpec::Kind::kError:
      decision.action = FaultDecision::Action::kFail;
      decision.status =
          Status(spec.code, "injected fault: " + std::string(site));
      record(now, site, spec, "");
      break;
    case sim::FaultSpec::Kind::kStall:
      decision.action = FaultDecision::Action::kStall;
      decision.stall = spec.stall;
      record(now, site, spec, strprintf("stall=%gs", to_seconds(spec.stall)));
      break;
    case sim::FaultSpec::Kind::kReset: {
      const double fraction = (spec.fraction_min + spec.fraction_max) / 2;
      decision.action = FaultDecision::Action::kReset;
      decision.fraction = fraction;
      decision.status =
          Status(spec.code, "injected reset: " + std::string(site));
      record(now, site, spec, strprintf("fraction=%.3f", fraction));
      break;
    }
    case sim::FaultSpec::Kind::kCrash:
      crash_fired_[index] = true;
      decision.action = FaultDecision::Action::kCrash;
      decision.status = Status(StatusCode::kUnavailable,
                               "injected crash: " + std::string(site));
      record(now, site, spec, strprintf("at=%gs", to_seconds(spec.at)));
      break;
    case sim::FaultSpec::Kind::kPartition:
      decision.action = FaultDecision::Action::kPartition;
      decision.status = Status(StatusCode::kUnavailable,
                               "injected partition: " + std::string(site));
      record(now, site, spec,
             strprintf("window=%g-%gs", to_seconds(spec.window_start),
                       to_seconds(spec.window_end)));
      break;
  }
  return decision;
}

FaultDecision FaultInjector::decide_with_strategy(std::string_view site,
                                                  TimePoint now) {
  // Collect the alternatives (see set_strategy in the header for the
  // contract): probabilistic rules that *might* fire, in plan order, capped
  // by the first rule that *must* fire under first-match-wins.
  const auto& rules = plan_.rules();
  std::vector<std::size_t> alternatives;
  std::size_t fallback = rules.size();  // sentinel: nothing deterministic
  for (std::size_t i = 0; i < rules.size() && fallback == rules.size(); ++i) {
    const sim::FaultRule& rule = rules[i];
    if (!sim::site_matches(rule.site_pattern, site)) continue;
    const sim::FaultSpec& spec = rule.spec;
    switch (spec.kind) {
      case sim::FaultSpec::Kind::kError:
      case sim::FaultSpec::Kind::kStall:
      case sim::FaultSpec::Kind::kReset:
        if (spec.probability <= 0) continue;
        if (spec.probability >= 1) {
          fallback = i;  // fires whenever reached: caps the scan
        } else {
          alternatives.push_back(i);
        }
        break;
      case sim::FaultSpec::Kind::kCrash:
        if (!crash_fired_[i] && now >= spec.at) fallback = i;
        break;
      case sim::FaultSpec::Kind::kPartition:
        if (now >= spec.window_start && now < spec.window_end) fallback = i;
        break;
    }
  }
  if (alternatives.empty()) {
    if (fallback < rules.size()) return fire_rule(fallback, site, now);
    return FaultDecision{};
  }
  std::vector<std::string> labels;
  labels.reserve(alternatives.size() + 1);
  labels.push_back(fallback < rules.size()
                       ? std::string(sim::fault_kind_name(
                             rules[fallback].spec.kind)) +
                             "@" + rules[fallback].site_pattern + "#" +
                             std::to_string(fallback)
                       : std::string("none"));
  for (std::size_t i : alternatives) {
    labels.push_back(std::string(sim::fault_kind_name(rules[i].spec.kind)) +
                     "@" + rules[i].site_pattern + "#" + std::to_string(i));
  }
  const mc::ChoicePoint cp{mc::ChoicePoint::Kind::kFault, site, labels};
  std::size_t chosen = strategy_->choose(cp);
  if (chosen >= labels.size()) chosen = 0;
  if (chosen == 0) {
    if (fallback < rules.size()) return fire_rule(fallback, site, now);
    return FaultDecision{};
  }
  return fire_rule(alternatives[chosen - 1], site, now);
}

FaultDecision FaultInjector::decide(std::string_view site, TimePoint now) {
  FaultDecision decision;
  if (plan_.empty()) return decision;
  if (strategy_ != nullptr) return decide_with_strategy(site, now);
  const auto& rules = plan_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const sim::FaultRule& rule = rules[i];
    if (!sim::site_matches(rule.site_pattern, site)) continue;
    const sim::FaultSpec& spec = rule.spec;
    switch (spec.kind) {
      case sim::FaultSpec::Kind::kError:
        if (!site_rng(site).chance(spec.probability)) continue;
        decision.action = FaultDecision::Action::kFail;
        decision.status = Status(spec.code, "injected fault: " +
                                                std::string(site));
        record(now, site, spec, "");
        return decision;
      case sim::FaultSpec::Kind::kStall:
        if (!site_rng(site).chance(spec.probability)) continue;
        decision.action = FaultDecision::Action::kStall;
        decision.stall = spec.stall;
        record(now, site, spec,
               strprintf("stall=%gs", to_seconds(spec.stall)));
        return decision;
      case sim::FaultSpec::Kind::kReset: {
        Rng& rng = site_rng(site);
        // Draw the fraction unconditionally so the stream's advance per
        // consultation is fixed whether or not the reset fires.
        const double fraction =
            spec.fraction_max > spec.fraction_min
                ? rng.uniform(spec.fraction_min, spec.fraction_max)
                : spec.fraction_min;
        if (!rng.chance(spec.probability)) continue;
        decision.action = FaultDecision::Action::kReset;
        decision.fraction = fraction;
        decision.status = Status(spec.code, "injected reset: " +
                                                std::string(site));
        record(now, site, spec, strprintf("fraction=%.3f", fraction));
        return decision;
      }
      case sim::FaultSpec::Kind::kCrash:
        if (crash_fired_[i] || now < spec.at) continue;
        crash_fired_[i] = true;
        decision.action = FaultDecision::Action::kCrash;
        decision.status =
            Status(StatusCode::kUnavailable,
                   "injected crash: " + std::string(site));
        record(now, site, spec, strprintf("at=%gs", to_seconds(spec.at)));
        return decision;
      case sim::FaultSpec::Kind::kPartition:
        if (now < spec.window_start || now >= spec.window_end) continue;
        decision.action = FaultDecision::Action::kPartition;
        decision.status =
            Status(StatusCode::kUnavailable,
                   "injected partition: " + std::string(site));
        record(now, site, spec,
               strprintf("window=%g-%gs", to_seconds(spec.window_start),
                         to_seconds(spec.window_end)));
        return decision;
    }
  }
  return decision;
}

std::int64_t FaultInjector::fired_at(std::string_view site) const {
  auto it = fired_.find(site);
  return it == fired_.end() ? 0 : it->second;
}

std::string FaultInjector::render_audit_line(const FaultEvent& event) {
  std::string out = strprintf("t=%.6f %s %s", to_seconds(event.time),
                              event.site.c_str(), event.kind.c_str());
  if (!event.detail.empty()) {
    out += ' ';
    out += event.detail;
  }
  out += '\n';
  return out;
}

std::string FaultInjector::audit_text() const {
  std::string out;
  for (const FaultEvent& event : events_) {
    out += render_audit_line(event);
  }
  return out;
}

std::string merged_audit_text(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.site < b.site;
                   });
  std::string out;
  for (const FaultEvent& event : events) {
    out += FaultInjector::render_audit_line(event);
  }
  return out;
}

}  // namespace ethergrid::core
