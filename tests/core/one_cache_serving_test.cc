// Serving on one cache: a core::Cluster with one worker and no LLC, so
// every tenant timeshares the same private cache (the paper's single-cache
// model with several applications on it).
//
// The acceptance properties: a 2+ tenant run is deterministic under both
// tenant policies (repeat runs are counter-identical), and per-tenant
// RunResults sum to the worker cache's own counters (every access belongs
// to exactly one tenant's step). Every end-of-run report also obeys the
// ClusterReport conservation laws. The suite keeps the name "Server" it had
// when a separate class implemented this configuration.

#include <gtest/gtest.h>

#include <string>

#include "core/cluster.h"
#include "partition/pipeline_dp.h"
#include "../support/cluster_invariants.h"
#include "util/error.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

/// One worker, no LLC, a 2048-word cache.
ClusterOptions one_cache(const std::string& tenant_policy = "round-robin") {
  ClusterOptions opts;
  opts.workers = 1;
  opts.l1 = {2048, 8};
  opts.tenant_policy = tenant_policy;
  return opts;
}

/// Admits two pipelines, feeds both in an interleaved arrival pattern, runs
/// to idle, drains, and reports. The whole scenario is a deterministic
/// function of `tenant_policy`.
ClusterReport run_two_tenant_scenario(const std::string& tenant_policy) {
  const auto g1 = workloads::uniform_pipeline(10, 150);
  const auto g2 = workloads::heavy_tail_pipeline(12, 32, 400, 4);
  const auto p1 = partition::pipeline_optimal_partition(g1, 3 * 512).partition;
  const auto p2 = partition::pipeline_optimal_partition(g2, 3 * 512).partition;

  Cluster cluster(one_cache(tenant_policy));
  const TenantId a = cluster.admit("uniform", g1, p1);
  const TenantId b = cluster.admit("heavy-tail", g2, p2);

  for (int round = 0; round < 8; ++round) {
    cluster.push(a, 96);
    cluster.push(b, round % 2 == 0 ? 192 : 0);  // bursty second tenant
    cluster.run_until_idle();
  }
  cluster.drain_all();
  ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report)) << tenant_policy;
  return report;
}

TEST(Server, PerTenantResultsSumToSharedCacheAggregate) {
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    const ClusterReport report = run_two_tenant_scenario(policy);
    ASSERT_EQ(report.tenants.size(), 2u);
    EXPECT_GT(report.tenants[0].totals.cache.accesses, 0) << policy;
    EXPECT_GT(report.tenants[1].totals.cache.accesses, 0) << policy;
    // The shared cache saw exactly the union of tenant traffic.
    ASSERT_EQ(report.workers.size(), 1u);
    EXPECT_EQ(report.aggregate.cache, report.workers[0].l1) << policy;
    EXPECT_EQ(report.llc, iomodel::CacheStats{}) << policy;
  }
}

TEST(Server, RepeatRunsAreCounterIdentical) {
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    const ClusterReport first = run_two_tenant_scenario(policy);
    const ClusterReport again = run_two_tenant_scenario(policy);
    ASSERT_EQ(first.tenants.size(), again.tenants.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
      EXPECT_EQ(first.tenants[i].totals, again.tenants[i].totals)
          << policy << " tenant " << first.tenants[i].name;
      EXPECT_EQ(first.tenants[i].steps, again.tenants[i].steps);
    }
    EXPECT_EQ(first.aggregate, again.aggregate) << policy;
    EXPECT_EQ(first.steps, again.steps) << policy;
  }
}

TEST(Server, RoundRobinAlternatesBetweenRunnableTenants) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(one_cache());
  const TenantId a = cluster.admit("a", g, p);
  const TenantId b = cluster.admit("b", g, p);
  // Keep both tenants runnable by re-feeding between decisions (a single-
  // component pipeline consumes its whole pending queue in one step), and
  // name who ran by whose step count moved.
  const auto step = [&] {
    cluster.push(a, 64);
    cluster.push(b, 64);
    const std::int64_t a_steps = cluster.stream(a).steps();
    const std::int64_t b_steps = cluster.stream(b).steps();
    EXPECT_EQ(cluster.step_round(), 1);
    if (cluster.stream(a).steps() > a_steps) return a;
    return cluster.stream(b).steps() > b_steps ? b : kNoTenant;
  };
  const TenantId first = step();
  const TenantId second = step();
  const TenantId third = step();
  ASSERT_NE(first, kNoTenant);
  ASSERT_NE(second, kNoTenant);
  EXPECT_NE(first, second);
  EXPECT_EQ(first, third);
}

TEST(Server, TenantsProgressIndependentlyOfEachOther) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(one_cache());
  const TenantId fed = cluster.admit("fed", g, p);
  const TenantId starved = cluster.admit("starved", g, p);
  cluster.push(fed, 128);
  cluster.run_until_idle();
  cluster.drain_all();
  const ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(fed)].outputs, 128);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(starved)].outputs, 0);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(starved)].totals.firings, 0);
}

TEST(Server, SharedCacheInterferenceRaisesMissesOverSoloRuns) {
  // The contention story: the same work on the same geometry misses more
  // when a second tenant is thrashing the cache in between.
  const auto g = workloads::uniform_pipeline(10, 150);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;

  const auto run_with = [&](bool second_tenant) {
    Cluster cluster(one_cache());
    const TenantId a = cluster.admit("a", g, p);
    const TenantId b = second_tenant ? cluster.admit("b", g, p) : kNoTenant;
    for (int round = 0; round < 4; ++round) {
      cluster.push(a, 64);
      if (second_tenant) cluster.push(b, 64);
      cluster.run_until_idle();
    }
    cluster.drain_all();
    const ClusterReport report = cluster.report();
    EXPECT_TRUE(test_support::check_invariants(report)) << second_tenant;
    return report.tenants[0].totals;
  };

  const runtime::RunResult solo = run_with(false);
  const runtime::RunResult contended = run_with(true);
  // Identical work for tenant a either way...
  EXPECT_EQ(solo.firings, contended.firings);
  EXPECT_EQ(solo.sink_firings, contended.sink_firings);
  // ...but sharing the cache cannot reduce its misses.
  EXPECT_GE(contended.cache.misses, solo.cache.misses);
}

TEST(Server, DrainedTenantUnderMissAwareDoesNotStarveOthers) {
  // The hazard: a drained tenant's last_miss_rate can be 0.0 (it ran out of
  // input mid-step), which is exactly what miss-aware prefers. It must be
  // parked as idle -- not re-picked forever -- so fed tenants keep making
  // progress.
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(one_cache("miss-aware"));
  const TenantId drained = cluster.admit("drained", g, p);
  const TenantId fed_b = cluster.admit("fed-b", g, p);
  const TenantId fed_c = cluster.admit("fed-c", g, p);

  // Warm all three, then stop feeding the first.
  for (const TenantId t : {drained, fed_b, fed_c}) cluster.push(t, 32);
  cluster.run_until_idle();
  for (int round = 0; round < 6; ++round) {
    cluster.push(fed_b, 48);
    cluster.push(fed_c, 48);
    const std::int64_t steps = cluster.run_until_idle();
    EXPECT_GT(steps, 0) << "fed tenants starved in round " << round;
  }
  cluster.drain_all();
  const ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(drained)].outputs, 32);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(fed_b)].outputs, 32 + 6 * 48);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(fed_c)].outputs, 32 + 6 * 48);
}

TEST(Server, PerTenantSumsEqualSharedAggregateUnderBurstyArrivals) {
  // The accounting invariant must survive maximally clumped arrivals: some
  // tenants idle for whole bursts while others monopolize the cache.
  const auto g1 = workloads::uniform_pipeline(10, 150);
  const auto g2 = workloads::heavy_tail_pipeline(12, 32, 400, 4);
  const auto p1 = partition::pipeline_optimal_partition(g1, 3 * 512).partition;
  const auto p2 = partition::pipeline_optimal_partition(g2, 3 * 512).partition;
  const auto burst_a = workloads::bursty_arrivals(128, 3);
  const auto burst_b = workloads::bursty_arrivals(192, 5);
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    Cluster cluster(one_cache(policy));
    const TenantId a = cluster.admit("a", g1, p1);
    const TenantId b = cluster.admit("b", g2, p2);
    for (std::int64_t tick = 0; tick < 16; ++tick) {
      cluster.push(a, burst_a(tick));
      cluster.push(b, burst_b(tick));
      cluster.run_until_idle();
    }
    cluster.drain_all();
    const ClusterReport report = cluster.report();
    EXPECT_TRUE(test_support::check_invariants(report)) << policy;
    runtime::RunResult sum;
    for (const auto& t : report.tenants) sum += t.totals;
    EXPECT_EQ(sum.cache, report.workers[0].l1) << policy;
    EXPECT_EQ(sum, report.aggregate) << policy;
  }
}

TEST(Server, RejectsDuplicateTenantNamesAndUnknownPolicies) {
  const auto g = workloads::uniform_pipeline(6, 50);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(one_cache());
  cluster.admit("a", g, p);
  EXPECT_THROW(cluster.admit("a", g, p), Error);

  try {
    Cluster bad(one_cache("bogus"));
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    EXPECT_NE(what.find("valid tenant policies"), std::string::npos) << what;
    EXPECT_NE(what.find("round-robin"), std::string::npos) << what;
    EXPECT_NE(what.find("miss-aware"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ccs::core
