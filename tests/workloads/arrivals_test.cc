// Arrival-pattern generators: shapes, determinism, and the registry.

#include "workloads/arrivals.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::workloads {
namespace {

TEST(Arrivals, SteadyIsConstant) {
  const ArrivalPattern p = steady_arrivals(7);
  for (std::int64_t t = 0; t < 50; ++t) EXPECT_EQ(p(t), 7);
  EXPECT_EQ(total_arrivals(p, 100), 700);
}

TEST(Arrivals, BurstyClumpsTheSameAverage) {
  const ArrivalPattern p = bursty_arrivals(64, 16);
  EXPECT_EQ(p(0), 64);
  for (std::int64_t t = 1; t < 16; ++t) EXPECT_EQ(p(t), 0) << t;
  EXPECT_EQ(p(16), 64);
  // Same average rate as steady(4) over whole periods.
  EXPECT_EQ(total_arrivals(p, 160), total_arrivals(steady_arrivals(4), 160));
}

TEST(Arrivals, OnOffDutyCycles) {
  const ArrivalPattern p = on_off_arrivals(8, 3, 5);
  // 3 on-ticks, 5 off-ticks, repeating.
  for (std::int64_t t = 0; t < 3; ++t) EXPECT_EQ(p(t), 8) << t;
  for (std::int64_t t = 3; t < 8; ++t) EXPECT_EQ(p(t), 0) << t;
  EXPECT_EQ(p(8), 8);
  EXPECT_EQ(total_arrivals(p, 16), 2 * 3 * 8);
}

TEST(Arrivals, PatternsArePureFunctionsOfTheTick) {
  // Same tick, same answer -- in any order, from any starting point.
  const ArrivalPattern p = on_off_arrivals(5, 4, 4);
  const std::int64_t at17 = p(17);
  total_arrivals(p, 40);  // evaluate a prefix in between
  EXPECT_EQ(p(17), at17);
  EXPECT_EQ(p(17 + 8), at17);  // one whole cycle later
}

TEST(Arrivals, RegistryBuildsBuiltinsAndRejectsUnknownKeys) {
  ArrivalRegistry r;
  register_builtin_arrivals(r);
  EXPECT_GE(r.size(), 6u);
  for (const std::string& key : r.keys()) {
    const ArrivalPattern p = r.build(key);
    EXPECT_GE(total_arrivals(p, 64), 0) << key;
    EXPECT_FALSE(r.find(key).description.empty()) << key;
  }
  try {
    r.build("bogus");
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("valid arrival patterns"), std::string::npos);
  }
}

TEST(Arrivals, GlobalRegistryIsSeeded) {
  EXPECT_TRUE(ArrivalRegistry::global().contains("steady-1"));
  EXPECT_TRUE(ArrivalRegistry::global().contains("bursty-64"));
  EXPECT_TRUE(ArrivalRegistry::global().contains("on-off-8x8"));
}

TEST(Arrivals, PhaseShiftDelaysTheBasePattern) {
  const ArrivalPattern shifted = phase_shift_arrivals(bursty_arrivals(64, 16), 8);
  for (std::int64_t t = 0; t < 8; ++t) EXPECT_EQ(shifted(t), 0) << t;
  EXPECT_EQ(shifted(8), 64);    // the base pattern's tick 0
  EXPECT_EQ(shifted(9), 0);
  EXPECT_EQ(shifted(24), 64);   // base tick 16, one period later
  // Same total mass as the base over any window covering whole periods
  // plus the shift.
  EXPECT_EQ(total_arrivals(shifted, 8 + 64), total_arrivals(bursty_arrivals(64, 16), 64));
  // Zero shift is the identity.
  const ArrivalPattern same = phase_shift_arrivals(steady_arrivals(3), 0);
  EXPECT_EQ(same(0), 3);
  EXPECT_EQ(same(41), 3);
  EXPECT_TRUE(ArrivalRegistry::global().contains("bursty-64-shift-8"));
}

TEST(Arrivals, RejectsDegenerateParameters) {
  EXPECT_THROW(bursty_arrivals(4, 0), ContractViolation);
  EXPECT_THROW(on_off_arrivals(4, 0, 4), ContractViolation);
  EXPECT_THROW(steady_arrivals(-1), ContractViolation);
  EXPECT_THROW(phase_shift_arrivals(steady_arrivals(1), -1), ContractViolation);
  EXPECT_THROW(phase_shift_arrivals(nullptr, 1), ContractViolation);
}

TEST(Arrivals, RejectsSilentPatternsWithClearErrors) {
  // A burst of zero items or a zero-length on-phase describes a pattern that
  // never delivers anything -- a silent misconfiguration, rejected with a
  // message naming the offending parameter.
  try {
    bursty_arrivals(0, 16);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("burst size"), std::string::npos);
  }
  try {
    on_off_arrivals(4, 0, 4);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("on-phase"), std::string::npos);
  }
  // Negative shapes are rejected by the same contracts, not just zero.
  EXPECT_THROW(bursty_arrivals(-1, 16), ContractViolation);
  EXPECT_THROW(on_off_arrivals(4, -2, 4), ContractViolation);
  // A deliberately idle tenant still has a spelling: steady at rate zero.
  EXPECT_EQ(total_arrivals(steady_arrivals(0), 32), 0);
}

TEST(ChurnTrace, EverySessionOpensPushesAndCloses) {
  ChurnOptions o;
  o.sessions = 100;
  o.max_concurrent = 5;
  o.pushes_per_session = 3;
  o.items_per_push = 16;
  const std::vector<SessionEvent> trace = churn_trace(o);

  std::int64_t opens = 0, pushes = 0, closes = 0;
  std::vector<std::int64_t> pushes_of(o.sessions, 0);
  std::vector<bool> is_open(o.sessions, false), ever(o.sessions, false);
  for (const SessionEvent& e : trace) {
    switch (e.kind) {
      case SessionEvent::Kind::kOpen:
        EXPECT_FALSE(ever[e.session]) << "session reopened";
        ever[e.session] = is_open[e.session] = true;
        ++opens;
        break;
      case SessionEvent::Kind::kPush:
        EXPECT_TRUE(is_open[e.session]);
        EXPECT_EQ(e.items, o.items_per_push);
        ++pushes_of[e.session];
        ++pushes;
        break;
      case SessionEvent::Kind::kClose:
        EXPECT_TRUE(is_open[e.session]);
        is_open[e.session] = false;
        ++closes;
        break;
    }
  }
  EXPECT_EQ(opens, o.sessions);
  EXPECT_EQ(closes, o.sessions);
  EXPECT_EQ(pushes, o.sessions * o.pushes_per_session);
  for (std::int64_t s = 0; s < o.sessions; ++s) {
    EXPECT_EQ(pushes_of[s], o.pushes_per_session) << s;
    EXPECT_FALSE(is_open[s]) << s;
  }
}

TEST(ChurnTrace, NeverExceedsTheConcurrencyBound) {
  ChurnOptions o;
  o.sessions = 400;
  o.max_concurrent = 7;
  const std::vector<SessionEvent> trace = churn_trace(o);
  std::int64_t open = 0, peak = 0;
  for (const SessionEvent& e : trace) {
    if (e.kind == SessionEvent::Kind::kOpen) peak = std::max(peak, ++open);
    if (e.kind == SessionEvent::Kind::kClose) --open;
  }
  EXPECT_LE(peak, o.max_concurrent);
  // With 400 sessions and a bound of 7, the trace should actually reach the
  // bound, not trivially satisfy it.
  EXPECT_EQ(peak, o.max_concurrent);
}

TEST(ChurnTrace, DeterministicPerSeed) {
  ChurnOptions o;
  o.sessions = 64;
  o.seed = 99;
  EXPECT_EQ(churn_trace(o), churn_trace(o));
  ChurnOptions other = o;
  other.seed = 100;
  EXPECT_NE(churn_trace(o), churn_trace(other));
}

TEST(ChurnTrace, RejectsDegenerateParameters) {
  ChurnOptions o;
  o.sessions = -1;
  EXPECT_THROW(churn_trace(o), ContractViolation);
  o = {};
  o.max_concurrent = 0;
  EXPECT_THROW(churn_trace(o), ContractViolation);
  o = {};
  o.pushes_per_session = 0;
  EXPECT_THROW(churn_trace(o), ContractViolation);
  o = {};
  o.items_per_push = 0;
  EXPECT_THROW(churn_trace(o), ContractViolation);
}

}  // namespace
}  // namespace ccs::workloads
