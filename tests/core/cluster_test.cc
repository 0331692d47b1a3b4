// core::Cluster -- the multicore serving golden gates.
//
// The acceptance properties this file pins:
//  * virtual-time runs are repeat-run counter-identical, down to the
//    shared-LLC statistics (fully deterministic lockstep);
//  * thread-mode per-tenant RunResults are bit-identical to virtual time
//    (both modes share one worker_step code path and private caches are
//    single-owner), so they sum to the same aggregates;
//  * placement policies stripe/balance/stick as documented, and migration
//    pays real reload misses.

#include "core/cluster.h"

#include <gtest/gtest.h>

#include <sstream>

#include "partition/pipeline_dp.h"
#include "../support/cluster_invariants.h"
#include "util/error.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

using iomodel::CacheConfig;

struct Scenario {
  std::vector<std::pair<std::string, sdf::SdfGraph>> tenants;
  std::vector<partition::Partition> partitions;
};

/// Two pipeline shapes x2, planned once for a 1024-word share.
Scenario four_tenant_scenario() {
  Scenario s;
  s.tenants.emplace_back("uniform-0", workloads::uniform_pipeline(10, 150));
  s.tenants.emplace_back("tail-1", workloads::heavy_tail_pipeline(12, 32, 400, 4));
  s.tenants.emplace_back("uniform-2", workloads::uniform_pipeline(10, 150));
  s.tenants.emplace_back("fat-3", workloads::uniform_pipeline(5, 500));
  for (const auto& [name, g] : s.tenants) {
    s.partitions.push_back(partition::pipeline_optimal_partition(g, 3 * 1024).partition);
  }
  return s;
}

ClusterOptions small_cluster(std::int32_t workers, const std::string& placement) {
  ClusterOptions opts;
  opts.workers = workers;
  opts.l1 = CacheConfig{4096, 8};
  opts.llc_words = 32768;
  opts.placement = placement;
  return opts;
}

/// Serves the scenario for 6 bursty ticks with a rebalance every other
/// tick; `threads` picks the execution mode, `llc_shards` the LLC stripes.
ClusterReport serve(const Scenario& s, std::int32_t workers, const std::string& placement,
                    bool threads, std::int32_t llc_shards = 1,
                    const std::string& tenant_policy = "round-robin") {
  ClusterOptions opts = small_cluster(workers, placement);
  opts.llc_shards = llc_shards;
  opts.tenant_policy = tenant_policy;
  Cluster cluster(opts);
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    cluster.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
  }
  const auto arrival = workloads::bursty_arrivals(96, 2);
  for (std::int64_t tick = 0; tick < 6; ++tick) {
    for (TenantId t = 0; t < cluster.tenant_count(); ++t) {
      cluster.push(t, arrival(tick));
    }
    if (tick % 2 == 0) cluster.rebalance();
    if (threads) {
      cluster.run_threads();
    } else {
      cluster.run_until_idle();
    }
  }
  cluster.drain_all();
  ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  return report;
}

TEST(Cluster, VirtualTimeRepeatRunsAreCounterIdentical) {
  const Scenario s = four_tenant_scenario();
  for (const std::string placement : {"round-robin", "least-loaded", "affinity"}) {
    const ClusterReport first = serve(s, 2, placement, false);
    const ClusterReport again = serve(s, 2, placement, false);
    ASSERT_EQ(first.tenants.size(), again.tenants.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
      EXPECT_EQ(first.tenants[i].totals, again.tenants[i].totals)
          << placement << " tenant " << first.tenants[i].name;
      EXPECT_EQ(first.tenants[i].worker, again.tenants[i].worker);
      EXPECT_EQ(first.tenants[i].migrations, again.tenants[i].migrations);
    }
    EXPECT_EQ(first.aggregate, again.aggregate) << placement;
    EXPECT_EQ(first.llc, again.llc) << placement;  // lockstep pins even the LLC
    EXPECT_EQ(first.rounds, again.rounds) << placement;
    EXPECT_EQ(first.migrations, again.migrations) << placement;
    EXPECT_EQ(first.makespan(), again.makespan()) << placement;
  }
}

TEST(Cluster, ThreadModePerTenantResultsSumToVirtualTimeAggregates) {
  const Scenario s = four_tenant_scenario();
  // 8 and 16 cover the oversubscribed tail: more workers than tenants, so
  // some workers idle -- determinism must not depend on every worker having
  // work (and on this host, on threads exceeding physical cores). The
  // miss-aware pick reads counters each worker thread writes for its own
  // tenants only, so it must hold the same gate.
  for (const std::string tenant_policy : {"round-robin", "miss-aware"}) {
    for (const std::int32_t workers : {1, 2, 4, 8, 16}) {
      const ClusterReport virtual_time =
          serve(s, workers, "round-robin", false, 1, tenant_policy);
      const ClusterReport threaded = serve(s, workers, "round-robin", true, 1, tenant_policy);
      ASSERT_EQ(virtual_time.tenants.size(), threaded.tenants.size());
      runtime::RunResult virtual_sum;
      runtime::RunResult threaded_sum;
      for (std::size_t i = 0; i < virtual_time.tenants.size(); ++i) {
        // Stronger than the sum property: each tenant's counters match
        // bit-for-bit, because both modes run the identical per-worker step
        // sequence against single-owner private caches.
        EXPECT_EQ(virtual_time.tenants[i].totals, threaded.tenants[i].totals)
            << tenant_policy << ", " << workers << " workers, tenant "
            << virtual_time.tenants[i].name;
        virtual_sum += virtual_time.tenants[i].totals;
        threaded_sum += threaded.tenants[i].totals;
      }
      EXPECT_EQ(virtual_sum, threaded_sum) << tenant_policy << " " << workers;
      EXPECT_EQ(threaded.aggregate, virtual_time.aggregate) << tenant_policy << " " << workers;
      // Total LLC probes equal summed private misses in both modes, even
      // though the hit/miss split may differ under real interleaving.
      EXPECT_EQ(threaded.llc.accesses, virtual_time.llc.accesses)
          << tenant_policy << " " << workers;
    }
  }
}

TEST(Cluster, MissAwarePicksTheLowestLastMissRate) {
  // One worker, two tenants: a tiny-state pipeline that barely misses and
  // a fat one that misses on every state reload. Once both have a last
  // step on record, miss-aware keeps picking the tiny one while it is
  // runnable; round-robin alternates regardless.
  const auto tiny = workloads::uniform_pipeline(4, 16);
  const auto fat = workloads::uniform_pipeline(8, 900);
  const auto p_tiny = partition::pipeline_optimal_partition(tiny, 3 * 1024).partition;
  const auto p_fat = partition::pipeline_optimal_partition(fat, 3 * 1024).partition;
  for (const std::string policy : {"miss-aware", "round-robin"}) {
    ClusterOptions opts;
    opts.workers = 1;
    opts.l1 = CacheConfig{2048, 8};
    opts.tenant_policy = policy;
    Cluster cluster(opts);
    const TenantId fat_id = cluster.admit("fat", fat, p_fat, {}, 1024);
    const TenantId tiny_id = cluster.admit("tiny", tiny, p_tiny, {}, 1024);
    // Both rates start at 0.0, so the first two picks are id order: fat,
    // then tiny. Afterwards each tenant's rate is its last step's.
    const auto step_and_name = [&] {
      const std::int64_t tiny_steps = cluster.stream(tiny_id).steps();
      EXPECT_EQ(cluster.step_round(), 1);
      return cluster.stream(tiny_id).steps() > tiny_steps ? tiny_id : fat_id;
    };
    std::vector<TenantId> picks;
    for (int i = 0; i < 6; ++i) {
      cluster.push(fat_id, 64);
      cluster.push(tiny_id, 64);
      picks.push_back(step_and_name());
    }
    if (policy == "miss-aware") {
      EXPECT_EQ(picks, (std::vector<TenantId>{fat_id, tiny_id, tiny_id, tiny_id, tiny_id,
                                              tiny_id}));
    } else {
      EXPECT_EQ(picks, (std::vector<TenantId>{fat_id, tiny_id, fat_id, tiny_id, fat_id,
                                              tiny_id}));
    }
  }
}

TEST(Cluster, ShardedLlcKeepsThreadVirtualDeterminism) {
  // The same thread-mode ≡ virtual-time gate with the address-striped LLC
  // (llc_shards = 4): per-tenant counters bit-identical across modes, and
  // total LLC probes still equal summed private misses.
  const Scenario s = four_tenant_scenario();
  for (const std::int32_t workers : {1, 2, 4, 8, 16}) {
    const ClusterReport virtual_time = serve(s, workers, "round-robin", false, 4);
    const ClusterReport threaded = serve(s, workers, "round-robin", true, 4);
    ASSERT_EQ(virtual_time.tenants.size(), threaded.tenants.size());
    for (std::size_t i = 0; i < virtual_time.tenants.size(); ++i) {
      EXPECT_EQ(virtual_time.tenants[i].totals, threaded.tenants[i].totals)
          << workers << " workers, tenant " << virtual_time.tenants[i].name;
    }
    EXPECT_EQ(threaded.aggregate, virtual_time.aggregate) << workers;
    EXPECT_EQ(threaded.llc.accesses, virtual_time.llc.accesses) << workers;
    EXPECT_EQ(virtual_time.llc_shards, 4) << workers;
  }
}

TEST(Cluster, RoundRobinStripesAdmissionsAcrossWorkers) {
  const Scenario s = four_tenant_scenario();
  Cluster cluster(small_cluster(2, "round-robin"));
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    cluster.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
  }
  EXPECT_EQ(cluster.worker_of(0), 0);
  EXPECT_EQ(cluster.worker_of(1), 1);
  EXPECT_EQ(cluster.worker_of(2), 0);
  EXPECT_EQ(cluster.worker_of(3), 1);
  // Static striping never migrates, even when explicitly rebalanced.
  cluster.push(0, 64);
  cluster.run_until_idle();
  EXPECT_EQ(cluster.rebalance(), 0);
}

TEST(Cluster, AffinityKeepsWarmSessionsPut) {
  const Scenario s = four_tenant_scenario();
  Cluster cluster(small_cluster(2, "affinity"));
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    cluster.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
  }
  // Warm every session, then rebalance: nobody's working set is better
  // cached anywhere else, so nobody moves.
  for (TenantId t = 0; t < cluster.tenant_count(); ++t) cluster.push(t, 32);
  cluster.run_until_idle();
  EXPECT_EQ(cluster.rebalance(), 0);
  EXPECT_EQ(cluster.report().migrations, 0);
}

TEST(Cluster, MigrationPaysRealReloadMisses) {
  const auto g = workloads::uniform_pipeline(10, 150);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 1024).partition;
  // Identical work, with and without a mid-run migration; the migrated run
  // must reload its working set on the new worker's cold L1.
  const auto run = [&](bool migrate_midway) {
    Cluster cluster(small_cluster(2, "round-robin"));
    const TenantId id = cluster.admit("t", g, p, {}, 1024);
    cluster.push(id, 64);
    cluster.run_until_idle();
    if (migrate_midway) cluster.migrate(id, 1);
    cluster.push(id, 64);
    cluster.run_until_idle();
    cluster.drain_all();
    ClusterReport report = cluster.report();
    EXPECT_TRUE(test_support::check_invariants(report));
    return report;
  };
  const ClusterReport stayed = run(false);
  const ClusterReport moved = run(true);
  EXPECT_EQ(stayed.tenants[0].totals.firings, moved.tenants[0].totals.firings);
  EXPECT_GT(moved.tenants[0].totals.cache.misses, stayed.tenants[0].totals.cache.misses);
  EXPECT_EQ(moved.tenants[0].migrations, 1);
  EXPECT_EQ(moved.tenants[0].worker, 1);
}

TEST(Cluster, TenantsAreIndependentAcrossWorkers) {
  const Scenario s = four_tenant_scenario();
  // The same tenant work on 1 worker and on 4: private-cache counters of a
  // tenant depend only on its own worker-local step interleaving, so a
  // tenant alone on its worker matches a solo single-worker run.
  Cluster alone(small_cluster(1, "round-robin"));
  alone.admit(s.tenants[0].first, s.tenants[0].second, s.partitions[0], {}, 1024);
  alone.push(0, 128);
  alone.run_until_idle();
  alone.drain_all();

  Cluster spread(small_cluster(4, "round-robin"));
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    spread.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
  }
  for (TenantId t = 0; t < spread.tenant_count(); ++t) spread.push(t, 128);
  spread.run_until_idle();
  spread.drain_all();

  EXPECT_EQ(spread.report().tenants[0].totals, alone.report().tenants[0].totals);
}

TEST(Cluster, ReportAccountingIsConsistent) {
  const Scenario s = four_tenant_scenario();
  const ClusterReport report = serve(s, 2, "least-loaded", false);
  runtime::RunResult sum;
  std::int64_t tenant_migrations = 0;
  for (const auto& t : report.tenants) {
    sum += t.totals;
    tenant_migrations += t.migrations;
  }
  EXPECT_EQ(sum, report.aggregate);
  EXPECT_EQ(tenant_migrations, report.migrations);
  std::int64_t busy = 0;
  std::int64_t placed = 0;
  for (const auto& w : report.workers) {
    busy += w.busy;
    placed += w.tenants;
  }
  EXPECT_EQ(busy, report.aggregate.firings);  // every firing ran on some worker
  EXPECT_EQ(placed, static_cast<std::int64_t>(report.tenants.size()));
  EXPECT_GE(report.makespan(), busy / static_cast<std::int64_t>(report.workers.size()));
  EXPECT_GE(report.imbalance(), 1.0);
  // Private misses across workers all flowed through the shared LLC.
  std::int64_t private_misses = 0;
  for (const auto& w : report.workers) private_misses += w.l1.misses;
  EXPECT_EQ(report.llc.accesses, private_misses);
}

TEST(Cluster, WriteJsonIsStableAcrossIdenticalRuns) {
  const Scenario s = four_tenant_scenario();
  std::ostringstream a;
  std::ostringstream b;
  serve(s, 2, "affinity", false).write_json(a);
  serve(s, 2, "affinity", false).write_json(b);
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"placement\": \"affinity\""), std::string::npos);
  EXPECT_NE(a.str().find("\"worker_table\""), std::string::npos);
}

TEST(Cluster, RejectsBadConfigurationsWithActionableErrors) {
  const auto g = workloads::uniform_pipeline(6, 50);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 1024).partition;
  ClusterOptions bad = small_cluster(2, "bogus");
  try {
    Cluster cluster(bad);
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("valid placement policies"), std::string::npos);
  }
  ClusterOptions bad_pick = small_cluster(2, "round-robin");
  bad_pick.tenant_policy = "fifo";
  try {
    Cluster cluster(bad_pick);
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("valid tenant policies: miss-aware round-robin"),
              std::string::npos)
        << e.what();
  }
  Cluster cluster(small_cluster(2, "round-robin"));
  cluster.admit("a", g, p);
  EXPECT_THROW(cluster.admit("a", g, p), Error);
  EXPECT_THROW(cluster.migrate(0, 7), ContractViolation);
}

}  // namespace
}  // namespace ccs::core
