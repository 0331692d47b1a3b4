#include "workloads/arrivals.h"

#include <utility>

#include "util/contract.h"
#include "util/rng.h"

namespace ccs::workloads {

ArrivalPattern steady_arrivals(std::int64_t per_tick) {
  CCS_EXPECTS(per_tick >= 0, "arrival rate must be non-negative");
  return [per_tick](std::int64_t) { return per_tick; };
}

ArrivalPattern bursty_arrivals(std::int64_t burst, std::int64_t period) {
  // A zero-size burst would be an arrival pattern that never delivers
  // anything -- a silent misconfiguration (use steady_arrivals(0) to model
  // an idle tenant on purpose).
  CCS_EXPECTS(burst >= 1, "burst size must be at least one item");
  CCS_EXPECTS(period >= 1, "burst period must be at least one tick");
  return [burst, period](std::int64_t tick) { return tick % period == 0 ? burst : 0; };
}

ArrivalPattern on_off_arrivals(std::int64_t per_tick, std::int64_t on, std::int64_t off) {
  CCS_EXPECTS(per_tick >= 0, "arrival rate must be non-negative");
  CCS_EXPECTS(on >= 1, "on-phase must last at least one tick");
  CCS_EXPECTS(off >= 0, "off-phase must be non-negative");
  const std::int64_t cycle = on + off;
  return [per_tick, on, cycle](std::int64_t tick) {
    return tick % cycle < on ? per_tick : 0;
  };
}

ArrivalPattern phase_shift_arrivals(ArrivalPattern base, std::int64_t shift) {
  CCS_EXPECTS(base != nullptr, "phase shift needs a base pattern");
  CCS_EXPECTS(shift >= 0, "phase shift must be non-negative");
  return [base = std::move(base), shift](std::int64_t tick) {
    return tick < shift ? 0 : base(tick - shift);
  };
}

std::int64_t total_arrivals(const ArrivalPattern& pattern, std::int64_t ticks) {
  CCS_EXPECTS(ticks >= 0, "tick count must be non-negative");
  std::int64_t total = 0;
  for (std::int64_t t = 0; t < ticks; ++t) total += pattern(t);
  return total;
}

ArrivalRegistry& ArrivalRegistry::global() {
  static ArrivalRegistry instance;
  static const bool initialized = (register_builtin_arrivals(instance), true);
  (void)initialized;
  return instance;
}

ArrivalPattern ArrivalRegistry::build(const std::string& name) const {
  return find(name).build();
}

void register_builtin_arrivals(ArrivalRegistry& r) {
  r.add("steady-1", {[] { return steady_arrivals(1); }, "1 item every tick"});
  r.add("steady-16", {[] { return steady_arrivals(16); }, "16 items every tick"});
  r.add("bursty-64",
        {[] { return bursty_arrivals(64, 16); }, "64 items every 16th tick (avg 4/tick)"});
  r.add("bursty-256",
        {[] { return bursty_arrivals(256, 32); }, "256 items every 32nd tick (avg 8/tick)"});
  r.add("bursty-1024",
        {[] { return bursty_arrivals(1024, 8); },
         "1024 items every 8th tick (Theta(M)-sized bursts for kiloword caches)"});
  r.add("on-off-8x8",
        {[] { return on_off_arrivals(8, 8, 8); }, "8/tick for 8 ticks, then 8 ticks silent"});
  r.add("on-off-16x48",
        {[] { return on_off_arrivals(16, 16, 48); },
         "16/tick for 16 ticks, then 48 ticks silent (25% duty cycle)"});
  r.add("bursty-64-shift-8",
        {[] { return phase_shift_arrivals(bursty_arrivals(64, 16), 8); },
         "bursty-64 delayed half a period (stagger against bursty-64 tenants)"});
}

std::vector<SessionEvent> churn_trace(const ChurnOptions& options) {
  CCS_EXPECTS(options.sessions >= 0, "session count must be non-negative");
  CCS_EXPECTS(options.max_concurrent >= 1, "at least one session must fit");
  CCS_EXPECTS(options.pushes_per_session >= 1, "each session needs a burst");
  CCS_EXPECTS(options.items_per_push >= 1, "bursts must carry items");

  std::vector<SessionEvent> trace;
  trace.reserve(static_cast<std::size_t>(
      options.sessions * (options.pushes_per_session + 2)));
  Rng rng(options.seed);

  // Open sessions with bursts still owed. Each drawn event either opens the
  // next logical session (when there is room) or advances a random open one
  // -- its next burst, or its close once the bursts are spent. Interleaving
  // means a session usually sits idle between its own bursts while others
  // run: exactly the reactivation pattern the swap tier feeds on.
  struct Open {
    std::int64_t session = 0;
    std::int64_t pushes_left = 0;
  };
  std::vector<Open> open;
  std::int64_t next_session = 0;
  while (next_session < options.sessions || !open.empty()) {
    const bool can_open = next_session < options.sessions &&
                          static_cast<std::int64_t>(open.size()) < options.max_concurrent;
    const bool must_open = open.empty();
    if (must_open || (can_open && rng.bernoulli(0.5))) {
      trace.push_back({SessionEvent::Kind::kOpen, next_session, 0});
      open.push_back({next_session, options.pushes_per_session});
      ++next_session;
      continue;
    }
    const auto slot = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(open.size()) - 1));
    Open& o = open[slot];
    if (o.pushes_left > 0) {
      trace.push_back({SessionEvent::Kind::kPush, o.session, options.items_per_push});
      --o.pushes_left;
    } else {
      trace.push_back({SessionEvent::Kind::kClose, o.session, 0});
      o = open.back();  // swap-remove; order is rng-driven anyway
      open.pop_back();
    }
  }
  return trace;
}

}  // namespace ccs::workloads
