// Session lifecycle on core::Cluster: close() semantics, band recycling,
// admission control under pressure, and the swap tier's headline guarantee
// -- a swap-on run is bit-identical to a swap-off run, under both tenant
// policies.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "partition/pipeline_dp.h"
#include "session/lifecycle.h"
#include "../support/cluster_invariants.h"
#include "util/contract.h"
#include "util/error.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

using session::SessionState;

/// A small pipeline + its optimal partition for the given cache size.
struct Workload {
  sdf::SdfGraph graph;
  partition::Partition partition;
};

Workload small_workload(std::int64_t m, std::int64_t state = 64) {
  Workload w;
  w.graph = workloads::uniform_pipeline(4, state);
  w.partition = partition::pipeline_optimal_partition(w.graph, 3 * m).partition;
  return w;
}

std::string numbered(const char* prefix, std::int64_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

// ---------------------------------------------------------------------------
// One cache (1 worker, no LLC): ids, retirement, bands, and the swap tier.
// The suite keeps the name "ServerLifecycle" it had when a separate class
// implemented this configuration.

/// One worker, no LLC, a 2048-word cache.
ClusterOptions one_cache() {
  ClusterOptions o;
  o.workers = 1;
  o.l1 = {2048, 8};
  return o;
}

TEST(ServerLifecycle, IdsAreNeverReused) {
  Cluster cluster(one_cache());
  const Workload w = small_workload(2048);
  std::vector<TenantId> seen;
  for (int i = 0; i < 6; ++i) {
    const TenantId id = cluster.admit(numbered("t", i), w.graph, w.partition);
    for (const TenantId old : seen) EXPECT_NE(id, old);
    seen.push_back(id);
    cluster.close(id);  // the slot frees but the id must not come back
  }
}

TEST(ServerLifecycle, ClosedTotalsFoldIntoRetiredAndTheAggregate) {
  Cluster cluster(one_cache());
  const Workload w = small_workload(2048);
  const TenantId a = cluster.admit("alpha", w.graph, w.partition);
  const TenantId b = cluster.admit("beta", w.graph, w.partition);
  cluster.push(a, 256);
  cluster.push(b, 256);
  cluster.run_until_idle();
  cluster.drain_all();

  const runtime::RunResult a_totals = cluster.stream(a).stats();
  ASSERT_GT(a_totals.cache.accesses, 0);
  cluster.close(a);
  cluster.push(b, 128);
  cluster.run_until_idle();
  cluster.drain_all();

  const ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  EXPECT_EQ(report.retired, a_totals);
  EXPECT_EQ(report.retired_sessions, 1);
  ASSERT_EQ(report.tenants.size(), 1u);
  // Closing loses no work: open rows + retired still equal the cache's own
  // ground-truth counters.
  EXPECT_EQ(report.aggregate.cache, report.workers[0].l1);
  runtime::RunResult sum = report.retired;
  sum += report.tenants[0].totals;
  EXPECT_EQ(sum, report.aggregate);
}

TEST(ServerLifecycle, BandsRecycleAndExhaustionThrows) {
  // The default 2^36-word band splits the 2^40 space into exactly 16 bands.
  Cluster cluster(one_cache());
  const Workload w = small_workload(2048);
  std::vector<TenantId> open;
  for (int i = 0; i < 16; ++i)
    open.push_back(cluster.admit(numbered("t", i), w.graph, w.partition));

  const std::string err =
      error_of([&] { cluster.admit("one-too-many", w.graph, w.partition); });
  EXPECT_NE(err.find("address space exhausted"), std::string::npos) << err;
  EXPECT_NE(err.find("16"), std::string::npos) << err;

  cluster.close(open[5]);  // frees a band mid-range...
  const TenantId again = cluster.admit("reuses-band", w.graph, w.partition);
  EXPECT_NE(again, kNoTenant);  // ...and the next admit picks it up
  EXPECT_EQ(cluster.tenant_count(), 16);
}

TEST(ServerLifecycle, BandWordsMustAlignToTheBlockSize) {
  ClusterOptions o = one_cache();
  o.band_words = (std::int64_t{1} << 20) + 4;  // not a multiple of 8
  EXPECT_THROW(Cluster{o}, Error);
}

TEST(ServerLifecycle, AdmissionPressureEvictsTheColdestIdleSession) {
  ClusterOptions o = one_cache();
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(2048);
  const TenantId a = cluster.admit("a", w.graph, w.partition);
  const TenantId b = cluster.admit("b", w.graph, w.partition);
  cluster.push(a, 64);
  cluster.push(b, 64);
  cluster.run_until_idle();  // both idle -> both are eviction candidates

  const TenantId c = cluster.admit("c", w.graph, w.partition);
  EXPECT_NE(c, kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_queued, 1);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 0);
  // `a` was pushed before `b`, so it is the least-recently-active victim.
  EXPECT_TRUE(cluster.swapped(a));
  EXPECT_EQ(cluster.state_of(a), SessionState::kSwapped);
  EXPECT_FALSE(cluster.swapped(b));
  EXPECT_EQ(cluster.lifecycle().swap_outs, 1);
  EXPECT_EQ(cluster.lifecycle().swapped_sessions, 1);
  EXPECT_EQ(cluster.lifecycle().live_sessions, 2);  // b + c resident

  // The next push rehydrates `a` transparently -- but the budget still
  // holds, so someone else must go cold first.
  cluster.push(b, 64);
  cluster.push(c, 64);
  cluster.run_until_idle();
  const runtime::RunResult before = cluster.report().aggregate;
  cluster.swap_out(b);
  EXPECT_EQ(cluster.push(a, 64), 64);
  EXPECT_FALSE(cluster.swapped(a));
  EXPECT_EQ(cluster.lifecycle().swap_ins, 1);
  cluster.run_until_idle();
  EXPECT_GT(cluster.report().aggregate.cache.accesses, before.cache.accesses);
}

TEST(ServerLifecycle, CloseRejectsTheIdForeverNamingLiveTenants) {
  Cluster cluster(one_cache());
  const Workload w = small_workload(2048);
  const TenantId a = cluster.admit("alpha", w.graph, w.partition);
  const TenantId b = cluster.admit("beta", w.graph, w.partition);
  ASSERT_EQ(cluster.tenant_count(), 2);

  cluster.close(a);
  EXPECT_EQ(cluster.tenant_count(), 1);
  EXPECT_EQ(error_of([&] { cluster.close(a); }),
            "unknown tenant id 0; live tenants: 1 'beta'");
  EXPECT_EQ(error_of([&] { cluster.push(a, 1); }),
            "unknown tenant id 0; live tenants: 1 'beta'");

  cluster.close(b);
  EXPECT_EQ(error_of([&] { cluster.close(b); }),
            "unknown tenant id 1; live tenants: (none)");
  EXPECT_EQ(cluster.lifecycle().sessions_opened, 2);
  EXPECT_EQ(cluster.lifecycle().sessions_closed, 2);
  EXPECT_EQ(cluster.lifecycle().live_sessions, 0);
  EXPECT_EQ(cluster.lifecycle().resident_words, 0);
}

TEST(ServerLifecycle, BoundedLiveRejectsWhenSwapIsOff) {
  ClusterOptions o = one_cache();
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  Cluster cluster(o);
  const Workload w = small_workload(2048);
  EXPECT_NE(cluster.admit("a", w.graph, w.partition), kNoTenant);
  EXPECT_NE(cluster.admit("b", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.admit("c", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 1);
  EXPECT_EQ(cluster.lifecycle().admissions_queued, 0);
  EXPECT_EQ(cluster.tenant_count(), 2);
  EXPECT_EQ(cluster.report().lifecycle.peak_live, 2);
}

TEST(ServerLifecycle, SwapOutRequiresAnIdleResidentSessionAndSwapMode) {
  Cluster no_swap(one_cache());
  const Workload w = small_workload(2048);
  const TenantId t = no_swap.admit("t", w.graph, w.partition);
  EXPECT_THROW(no_swap.swap_out(t), ContractViolation);

  ClusterOptions on = one_cache();
  on.swap = true;
  Cluster cluster(on);
  const TenantId u = cluster.admit("u", w.graph, w.partition);
  cluster.push(u, 16);  // live (has pending arrivals) -> not evictable
  EXPECT_THROW(cluster.swap_out(u), Error);
  cluster.run_until_idle();
  cluster.swap_out(u);
  EXPECT_THROW(cluster.swap_out(u), Error);  // already swapped
}

/// Drives one 4096-word cache through a fixed multi-round schedule under
/// "miss-aware" (its picks depend on counters, so this is a real gate);
/// with `swap`, every quiescent point evicts all idle sessions, so the next
/// round's pushes all rehydrate. Returns the final report (post-drain).
ClusterReport drive_one_cache(bool swap) {
  ClusterOptions o = one_cache();
  o.l1 = {4096, 8};
  o.tenant_policy = "miss-aware";
  o.swap = swap;
  Cluster cluster(o);
  const Workload wa = small_workload(o.l1.capacity_words, 64);
  const Workload wb = small_workload(o.l1.capacity_words, 96);
  const TenantId a = cluster.admit("alpha", wa.graph, wa.partition);
  const TenantId b = cluster.admit("beta", wb.graph, wb.partition);
  for (int round = 0; round < 5; ++round) {
    cluster.push(a, 96);
    cluster.push(b, 64);
    cluster.run_until_idle();
    if (swap) {
      EXPECT_EQ(cluster.swap_out_idle(), 2);
    }
  }
  cluster.drain_all();
  ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  return report;
}

TEST(ServerLifecycle, SwapOnRunIsBitIdenticalToSwapOff) {
  const ClusterReport off = drive_one_cache(false);
  const ClusterReport on = drive_one_cache(true);
  ASSERT_EQ(off.tenants.size(), on.tenants.size());
  for (std::size_t i = 0; i < off.tenants.size(); ++i) {
    EXPECT_EQ(off.tenants[i].id, on.tenants[i].id);
    EXPECT_EQ(off.tenants[i].state, on.tenants[i].state);
    EXPECT_EQ(off.tenants[i].totals, on.tenants[i].totals) << i;
    EXPECT_EQ(off.tenants[i].steps, on.tenants[i].steps) << i;
    EXPECT_EQ(off.tenants[i].outputs, on.tenants[i].outputs) << i;
  }
  EXPECT_EQ(off.aggregate, on.aggregate);
  ASSERT_EQ(off.workers.size(), 1u);
  EXPECT_EQ(off.workers[0].l1, on.workers[0].l1);  // not one extra cache access
  EXPECT_EQ(off.steps, on.steps);
  // ...and the swap-on run really did round-trip everything, repeatedly.
  EXPECT_EQ(on.lifecycle.swap_outs, 10);
  EXPECT_GE(on.lifecycle.swap_ins, 8);
  EXPECT_EQ(off.lifecycle.swap_outs, 0);
}

// ---------------------------------------------------------------------------
// Cluster: the same lifecycle over sharded workers.

TEST(ClusterLifecycle, CloseRejectsTheIdForeverNamingLiveTenants) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  const TenantId a = cluster.admit("alpha", w.graph, w.partition);
  const TenantId b = cluster.admit("beta", w.graph, w.partition);
  cluster.push(a, 64);
  cluster.push(b, 64);
  cluster.run_until_idle();

  cluster.close(a);
  EXPECT_EQ(error_of([&] { cluster.close(a); }),
            "unknown tenant id 0; live tenants: 1 'beta'");
  const ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  EXPECT_EQ(report.retired_sessions, 1);
  EXPECT_GT(report.retired.cache.accesses, 0);
  ASSERT_EQ(report.tenants.size(), 1u);
  runtime::RunResult sum = report.retired;
  sum += report.tenants[0].totals;
  EXPECT_EQ(sum, report.aggregate);

  EXPECT_EQ(error_of([&] { cluster.push(a, 1); }),
            "unknown tenant id 0; live tenants: 1 'beta'");

  cluster.close(b);
  EXPECT_EQ(error_of([&] { cluster.close(b); }),
            "unknown tenant id 1; live tenants: (none)");
  EXPECT_EQ(cluster.lifecycle().sessions_opened, 2);
  EXPECT_EQ(cluster.lifecycle().sessions_closed, 2);
  EXPECT_EQ(cluster.lifecycle().live_sessions, 0);
  EXPECT_EQ(cluster.lifecycle().resident_words, 0);
}

TEST(ClusterLifecycle, BoundedLiveCountsRejections) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 3;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  for (int i = 0; i < 3; ++i)
    EXPECT_NE(cluster.admit(numbered("t", i), w.graph, w.partition),
              kNoTenant);
  EXPECT_EQ(cluster.admit("overflow", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 1);
  EXPECT_EQ(cluster.lifecycle().admissions_queued, 0);  // swap is off: no victim
  EXPECT_EQ(cluster.tenant_count(), 3);
  EXPECT_EQ(cluster.report().lifecycle.peak_live, 3);
}

/// Drives one cluster through a fixed schedule over 2 workers; with `swap`,
/// every quiescent point evicts all idle sessions, so the next round's
/// pushes all rehydrate. "miss-aware" picks depend on counters, which makes
/// it a real gate on the swapped sessions' state.
ClusterReport drive_cluster(bool swap, const std::string& tenant_policy) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  o.llc_words = 16 * 1024;
  o.placement = "affinity";
  o.tenant_policy = tenant_policy;
  o.swap = swap;
  Cluster cluster(o);
  const Workload wa = small_workload(o.l1.capacity_words, 64);
  const Workload wb = small_workload(o.l1.capacity_words, 96);
  std::vector<TenantId> ids;
  for (int i = 0; i < 4; ++i) {
    const Workload& w = (i % 2 == 0) ? wa : wb;
    ids.push_back(
        cluster.admit(numbered("t", i), w.graph, w.partition));
  }
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      cluster.push(ids[i], 48 + 16 * static_cast<std::int64_t>(i % 2));
    cluster.run_until_idle();
    cluster.rebalance();
    if (swap) {
      EXPECT_EQ(cluster.swap_out_idle(), 4);
    }
  }
  cluster.drain_all();
  ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  return report;
}

TEST(ClusterLifecycle, SwapOnRunIsBitIdenticalToSwapOff) {
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    const ClusterReport off = drive_cluster(false, policy);
    const ClusterReport on = drive_cluster(true, policy);
    ASSERT_EQ(off.tenants.size(), on.tenants.size()) << policy;
    for (std::size_t i = 0; i < off.tenants.size(); ++i) {
      EXPECT_EQ(off.tenants[i].id, on.tenants[i].id) << policy;
      EXPECT_EQ(off.tenants[i].state, on.tenants[i].state) << policy << " " << i;
      EXPECT_EQ(off.tenants[i].totals, on.tenants[i].totals) << policy << " " << i;
      EXPECT_EQ(off.tenants[i].steps, on.tenants[i].steps) << policy << " " << i;
      EXPECT_EQ(off.tenants[i].outputs, on.tenants[i].outputs) << policy << " " << i;
      // Swapped sessions stay pinned, so placement history is identical too.
      EXPECT_EQ(off.tenants[i].worker, on.tenants[i].worker) << policy << " " << i;
      EXPECT_EQ(off.tenants[i].migrations, on.tenants[i].migrations) << policy << " " << i;
    }
    ASSERT_EQ(off.workers.size(), on.workers.size()) << policy;
    for (std::size_t wi = 0; wi < off.workers.size(); ++wi) {
      // Not one extra cache access on any worker.
      EXPECT_EQ(off.workers[wi].l1, on.workers[wi].l1) << policy << " " << wi;
      EXPECT_EQ(off.workers[wi].busy, on.workers[wi].busy) << policy << " " << wi;
      EXPECT_EQ(off.workers[wi].steps, on.workers[wi].steps) << policy << " " << wi;
    }
    EXPECT_EQ(off.aggregate, on.aggregate) << policy;
    EXPECT_EQ(off.llc, on.llc) << policy;
    EXPECT_EQ(off.steps, on.steps) << policy;
    EXPECT_EQ(off.makespan(), on.makespan()) << policy;
    // ...and the swap-on run really did round-trip everything, repeatedly.
    EXPECT_EQ(on.lifecycle.swap_outs, 16) << policy;
    EXPECT_EQ(on.lifecycle.swap_ins, 16) << policy;  // 3 rounds + drain_all, x4
    EXPECT_EQ(off.lifecycle.swap_outs, 0) << policy;
  }
}

/// swap_outs - swap_ins == swapped_sessions + closed_swapped: every image
/// written is either read back, still held, or dropped by a close().
void expect_swap_balance(const session::LifecycleCounters& c, const std::string& where) {
  EXPECT_EQ(c.swap_outs - c.swap_ins, c.swapped_sessions + c.closed_swapped) << where;
}

TEST(ClusterLifecycle, SwapBalanceHoldsAtEveryQuiescentPointOfAChurnTrace) {
  for (const std::int32_t workers : {1, 2}) {
    ClusterOptions o;
    o.workers = workers;
    o.l1 = {2048, 8};
    o.llc_words = 8192;
    o.admission = "bounded-live";
    o.budget.max_live_sessions = 4;
    o.swap = true;
    Cluster cluster(o);
    const Workload w = small_workload(o.l1.capacity_words);
    workloads::ChurnOptions churn;
    churn.sessions = 96;
    churn.max_concurrent = 6;
    churn.seed = 5;
    std::map<std::int64_t, TenantId> live;
    for (const workloads::SessionEvent& e : workloads::churn_trace(churn)) {
      const std::string where = std::to_string(workers) + " workers, session " +
                                std::to_string(e.session);
      switch (e.kind) {
        case workloads::SessionEvent::Kind::kOpen:
          live[e.session] = cluster.admit(numbered("s", e.session), w.graph, w.partition);
          ASSERT_NE(live[e.session], kNoTenant) << where;
          break;
        case workloads::SessionEvent::Kind::kPush:
          cluster.push(live.at(e.session), e.items);
          cluster.run_until_idle();
          expect_swap_balance(cluster.lifecycle(), where + " after its burst");
          // Half the time, shed every idle session, so later closes find
          // some sessions swapped and some resident.
          if (e.session % 2 == 0) cluster.swap_out_idle();
          break;
        case workloads::SessionEvent::Kind::kClose:
          cluster.close(live.at(e.session));
          live.erase(e.session);
          break;
      }
      expect_swap_balance(cluster.lifecycle(), where);
    }
    cluster.drain_all();
    const ClusterReport report = cluster.report();
    EXPECT_TRUE(test_support::check_invariants(report)) << workers << " workers";
    const session::LifecycleCounters& c = report.lifecycle;
    EXPECT_EQ(c.sessions_closed, 96);
    // Both close paths ran: some sessions closed while swapped, some not.
    EXPECT_GT(c.closed_swapped, 0);
    EXPECT_LT(c.closed_swapped, c.sessions_closed);
    EXPECT_GT(c.swap_ins, 0);
  }
}

TEST(ClusterLifecycle, ConstStreamAccessOfASwappedTenantThrows) {
  ClusterOptions o;
  o.workers = 1;
  o.l1 = {2048, 8};
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  const TenantId t = cluster.admit("t", w.graph, w.partition);
  cluster.push(t, 32);
  cluster.run_until_idle();
  cluster.swap_out(t);
  const Cluster& view = cluster;
  EXPECT_THROW(view.stream(t), Error);
  EXPECT_NO_THROW(cluster.stream(t));  // non-const rehydrates instead
  EXPECT_FALSE(cluster.swapped(t));
}

TEST(ClusterLifecycle, SwapKeepsTheTenantsStreamAndPolicy) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  cluster.admit("a", w.graph, w.partition);
  const TenantId t = cluster.admit("t", w.graph, w.partition);
  cluster.push(t, 32);
  cluster.run_until_idle();
  const Stream* const stream = &cluster.stream(t);
  const schedule::OnlinePolicy* const policy = &cluster.stream(t).policy();
  const std::int64_t outputs = stream->outputs_produced();
  const ClusterReport before = cluster.report();

  cluster.swap_out(t);
  ASSERT_TRUE(cluster.swapped(t));
  EXPECT_FALSE(stream->has_engine());  // only the engine was freed
  const ClusterReport swapped = cluster.report();
  ASSERT_EQ(swapped.tenants.size(), 2u);
  EXPECT_EQ(swapped.tenants[1].state, session::SessionState::kSwapped);
  EXPECT_EQ(swapped.tenants[1].totals, before.tenants[1].totals);
  EXPECT_EQ(swapped.tenants[1].steps, before.tenants[1].steps);
  EXPECT_EQ(swapped.tenants[1].outputs, outputs);

  cluster.push(t, 32);  // rehydrates
  EXPECT_FALSE(cluster.swapped(t));
  EXPECT_EQ(&cluster.stream(t), stream);
  EXPECT_EQ(&cluster.stream(t).policy(), policy);
  cluster.run_until_idle();
  EXPECT_GT(cluster.stream(t).outputs_produced(), outputs);
}

}  // namespace
}  // namespace ccs::core
