// Conservation laws every core::ClusterReport obeys at a quiescent point
// (after run()/drain() returned, outside any round), whatever the
// placement, admission, swap or cost-model settings:
//
//   * retired + the open tenants' totals == aggregate (every RunResult
//     counter, the latency histogram and the per-node misses included);
//   * sessions opened == closed + live + swapped, and peak_live >= live;
//   * one latency sample per step: aggregate.latency.count() == steps;
//   * the workers' busy cycles sum to the aggregate's modeled cost;
//   * swap_outs - swap_ins == swapped + closed_swapped;
//   * with a shared LLC, its accesses equal the workers' L1 misses summed
//     (every private miss, and nothing else, is forwarded to it).
//
// check_invariants() returns a gtest AssertionResult naming every law that
// fails, so a call site reads EXPECT_TRUE(check_invariants(report)).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/cluster.h"

namespace ccs::test_support {

inline ::testing::AssertionResult check_invariants(const core::ClusterReport& r) {
  std::ostringstream broken;
  const auto law = [&](bool holds, const char* what, std::int64_t lhs, std::int64_t rhs) {
    if (!holds) broken << "\n  " << what << ": " << lhs << " vs " << rhs;
  };

  runtime::RunResult summed = r.retired;
  for (const core::ClusterTenantReport& t : r.tenants) summed += t.totals;
  law(summed == r.aggregate, "retired + tenant totals == aggregate (misses shown)",
      summed.cache.misses, r.aggregate.cache.misses);

  const session::LifecycleCounters& life = r.lifecycle;
  law(life.sessions_opened ==
          life.sessions_closed + life.live_sessions + life.swapped_sessions,
      "opened == closed + live + swapped", life.sessions_opened,
      life.sessions_closed + life.live_sessions + life.swapped_sessions);
  law(life.peak_live >= life.live_sessions, "peak_live >= live", life.peak_live,
      life.live_sessions);
  law(r.aggregate.latency.count() == r.steps, "aggregate latency samples == steps",
      r.aggregate.latency.count(), r.steps);

  std::int64_t busy = 0;
  std::int64_t l1_misses = 0;
  for (const core::ClusterWorkerReport& w : r.workers) {
    busy += w.busy;
    l1_misses += w.l1.misses;
  }
  law(busy == r.aggregate.cost, "sum of worker busy == aggregate cost", busy,
      r.aggregate.cost);
  law(life.swap_outs - life.swap_ins == life.swapped_sessions + life.closed_swapped,
      "swap_outs - swap_ins == swapped + closed_swapped", life.swap_outs - life.swap_ins,
      life.swapped_sessions + life.closed_swapped);
  if (r.llc_shards > 0) {
    law(r.llc.accesses == l1_misses, "LLC accesses == sum of worker L1 misses",
        r.llc.accesses, l1_misses);
  }

  if (broken.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "ClusterReport laws broken:" << broken.str();
}

}  // namespace ccs::test_support
