#include "faults/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace beesim::faults {

bool FaultSchedule::hasFailures() const {
  return std::any_of(events.begin(), events.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kTargetFail || e.kind == FaultKind::kHostFail;
  });
}

namespace {

/// Tie-break rank for simultaneous events: recoveries apply before degrades,
/// degrades before failures, so conflicting events on the same index at the
/// same instant net out to the *failed* state regardless of input order.
int kindRank(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTargetRecover:
      return 0;
    case FaultKind::kHostRecover:
      return 1;
    case FaultKind::kTargetDegrade:
      return 2;
    case FaultKind::kLinkDegrade:
      return 3;
    case FaultKind::kTargetFail:
      return 4;
    case FaultKind::kHostFail:
      return 5;
  }
  BEESIM_ASSERT(false, "unknown fault kind");
  return 6;  // unreachable
}

}  // namespace

void FaultSchedule::normalize(std::size_t targetCount, std::size_t hostCount) {
  for (const auto& e : events) {
    if (e.at < 0.0) {
      throw util::ConfigError("fault event time must be >= 0");
    }
    const bool targetScoped = e.kind == FaultKind::kTargetFail ||
                              e.kind == FaultKind::kTargetRecover ||
                              e.kind == FaultKind::kTargetDegrade;
    if (targetScoped && e.index >= targetCount) {
      throw util::ConfigError("fault event target index out of range: t" +
                              std::to_string(e.index));
    }
    if (!targetScoped && e.index >= hostCount) {
      throw util::ConfigError("fault event host index out of range: h" +
                              std::to_string(e.index));
    }
    const bool degrade =
        e.kind == FaultKind::kLinkDegrade || e.kind == FaultKind::kTargetDegrade;
    if (degrade && (e.fraction < 0.0 || e.fraction > 1.0)) {
      throw util::ConfigError("degradation fraction must be in [0, 1]");
    }
  }
  // Total order: time, then the documented tie-break (recover < degrade <
  // fail), then index, then fraction.  std::sort is safe because the key is
  // total -- equal keys are interchangeable events.  A run normalizes its
  // schedule up to three times, so an already sorted one is only checked.
  const auto before = [](const FaultEvent& a, const FaultEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    if (kindRank(a.kind) != kindRank(b.kind)) return kindRank(a.kind) < kindRank(b.kind);
    if (a.index != b.index) return a.index < b.index;
    return a.fraction < b.fraction;
  };
  if (!std::is_sorted(events.begin(), events.end(), before)) {
    std::sort(events.begin(), events.end(), before);
  }
}

void FaultSchedule::clampToHorizon(util::Seconds horizon) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [horizon](const FaultEvent& e) { return e.at >= horizon; }),
               events.end());
}

namespace {

void generateRenewal(std::vector<FaultEvent>& out, FaultKind fail, FaultKind recover,
                     std::size_t count, util::Seconds mttf, util::Seconds mttr,
                     util::Seconds horizon, util::Rng& rng) {
  if (mttf <= 0.0 || mttr <= 0.0) return;
  for (std::size_t i = 0; i < count; ++i) {
    // Alternating up/down sojourns; every entity draws from the same stream
    // in index order so the schedule is a pure function of the rng state.
    util::Seconds t = rng.exponential(mttf);
    while (t < horizon) {
      out.push_back(FaultEvent{t, fail, i, 1.0});
      t += rng.exponential(mttr);
      if (t >= horizon) break;  // stays down past the horizon
      out.push_back(FaultEvent{t, recover, i, 1.0});
      t += rng.exponential(mttf);
    }
  }
}

/// Fail-slow renewal: like generateRenewal, but the "fail" side is a degrade
/// event of the same kind with a severity drawn uniformly from [0, ceiling]
/// and the "recover" side restores fraction 1.  The severity draw
/// happens inside the per-entity stream, so the whole schedule stays a pure
/// function of the rng state.
void generateDegradeRenewal(std::vector<FaultEvent>& out, FaultKind kind, std::size_t count,
                            util::Seconds mttf, util::Seconds mttr, double ceiling,
                            util::Seconds horizon, util::Rng& rng) {
  if (mttf <= 0.0 || mttr <= 0.0) return;
  for (std::size_t i = 0; i < count; ++i) {
    util::Seconds t = rng.exponential(mttf);
    while (t < horizon) {
      out.push_back(FaultEvent{t, kind, i, rng.uniform(0.0, ceiling)});
      t += rng.exponential(mttr);
      if (t >= horizon) break;  // stays degraded past the horizon
      out.push_back(FaultEvent{t, kind, i, 1.0});
      t += rng.exponential(mttf);
    }
  }
}

}  // namespace

FaultSchedule generateSchedule(const StochasticFaultSpec& spec, std::size_t targetCount,
                               std::size_t hostCount, util::Rng& rng) {
  if (spec.horizon <= 0.0 &&
      (spec.targetMttf > 0.0 || spec.hostMttf > 0.0 || spec.degradeMttf > 0.0 ||
       spec.linkStutterMttf > 0.0)) {
    throw util::ConfigError("stochastic fault spec needs a horizon > 0");
  }
  if (spec.degradeCeiling < 0.0 || spec.degradeCeiling > 1.0) {
    throw util::ConfigError("degrade severity ceiling must lie in [0, 1]");
  }
  FaultSchedule schedule;
  generateRenewal(schedule.events, FaultKind::kTargetFail, FaultKind::kTargetRecover,
                  targetCount, spec.targetMttf, spec.targetMttr, spec.horizon, rng);
  generateRenewal(schedule.events, FaultKind::kHostFail, FaultKind::kHostRecover, hostCount,
                  spec.hostMttf, spec.hostMttr, spec.horizon, rng);
  // Fail-slow streams draw *after* the crash streams, so enabling them never
  // perturbs the crash schedule an existing seed produced.
  generateDegradeRenewal(schedule.events, FaultKind::kTargetDegrade, targetCount,
                         spec.degradeMttf, spec.degradeMttr, spec.degradeCeiling,
                         spec.horizon, rng);
  generateDegradeRenewal(schedule.events, FaultKind::kLinkDegrade, hostCount,
                         spec.linkStutterMttf, spec.linkStutterMttr, spec.degradeCeiling,
                         spec.horizon, rng);
  // generateRenewal already stops at the horizon, but the boundary case (an
  // event at exactly t == horizon) must follow the documented half-open
  // contract regardless of how the events were produced.
  schedule.clampToHorizon(spec.horizon);
  schedule.normalize(targetCount, hostCount);
  return schedule;
}

namespace {

[[noreturn]] void parseError(const std::string& token, const std::string& why) {
  throw util::ConfigError("bad fault event '" + token + "': " + why +
                          " (expected e.g. off:t3@30, on:h1@120, link:h0@40=0.5)");
}

double parseNumber(const std::string& token, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) parseError(token, "trailing characters after number");
    return value;
  } catch (const util::ConfigError&) {
    throw;
  } catch (const std::exception&) {
    parseError(token, "not a number: '" + text + "'");
  }
}

}  // namespace

FaultSchedule parseSchedule(const std::string& text) {
  FaultSchedule schedule;
  std::string token;
  // Accept both ';' and ',' as separators (',' is friendlier inside shells).
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), ',', ';');
  std::istringstream stream(normalized);
  while (std::getline(stream, token, ';')) {
    const std::string item = util::trim(token);
    if (item.empty()) continue;

    const auto colon = item.find(':');
    if (colon == std::string::npos) parseError(item, "missing ':'");
    const std::string verb = item.substr(0, colon);
    std::string rest = item.substr(colon + 1);

    double fraction = 1.0;
    if (verb == "link" || verb == "slow") {
      const auto eq = rest.find('=');
      if (eq == std::string::npos) parseError(item, verb + " events need '=fraction'");
      fraction = parseNumber(item, util::trim(rest.substr(eq + 1)));
      rest = rest.substr(0, eq);
    }

    const auto at = rest.find('@');
    if (at == std::string::npos) parseError(item, "missing '@time'");
    const std::string entity = util::trim(rest.substr(0, at));
    const double when = parseNumber(item, util::trim(rest.substr(at + 1)));

    if (entity.size() < 2 || (entity[0] != 't' && entity[0] != 'h')) {
      parseError(item, "entity must be tN (target) or hN (host)");
    }
    const bool isHost = entity[0] == 'h';
    std::size_t index = 0;
    try {
      std::size_t pos = 0;
      index = std::stoul(entity.substr(1), &pos);
      if (pos != entity.size() - 1) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      parseError(item, "bad entity index: '" + entity + "'");
    }

    FaultKind kind{};
    if (verb == "off") {
      kind = isHost ? FaultKind::kHostFail : FaultKind::kTargetFail;
    } else if (verb == "on") {
      kind = isHost ? FaultKind::kHostRecover : FaultKind::kTargetRecover;
    } else if (verb == "link") {
      if (!isHost) parseError(item, "link events apply to hosts (hN)");
      kind = FaultKind::kLinkDegrade;
    } else if (verb == "slow") {
      if (isHost) parseError(item, "slow events apply to targets (tN); use link: for hosts");
      kind = FaultKind::kTargetDegrade;
    } else {
      parseError(item, "unknown verb '" + verb + "'");
    }
    schedule.events.push_back(FaultEvent{when, kind, index, fraction});
  }
  return schedule;
}

}  // namespace beesim::faults
