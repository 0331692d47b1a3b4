// Adaptive footprint-driven placement -- the differential-test harness.
//
// The acceptance properties this file pins:
//  * "adaptive" with migration disabled (ClusterOptions::auto_migrate off) is
//    decision-for-decision identical to "affinity": per-tenant counters,
//    placements, migrations, LLC statistics, rounds, makespan -- across
//    several arrival patterns (the differential baseline);
//  * with active thresholds, migrations change only cache traffic: firings,
//    source/sink firings, steps, and outputs are conserved against the
//    never-migrated run (placement is invisible to the dataflow);
//  * adaptive runs keep both determinism gates: repeat runs are
//    counter-identical down to the shared LLC, and thread mode matches
//    virtual time per tenant at 1/2/4 workers;
//  * an oversubscribed worker actually sheds hot sessions (auto_migrations
//    fires, hot tenants end up spread out);
//  * Cluster::migrate edge cases: a move to the current worker is a counted
//    no-op, an unknown tenant id throws ccs::Error naming the live tenants,
//    and rebalance() on an empty cluster returns 0;
//  * every end-of-run report obeys the ClusterReport conservation laws;
//  * placement::FootprintEstimator's seed/correct/classify arithmetic.

#include "core/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "partition/pipeline_dp.h"
#include "placement/footprint.h"
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

/// Two pipeline shapes x2, planned once for a 1024-word share -- the same
/// mix cluster_test.cc serves, so the differential gate runs on familiar
/// ground.
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

ClusterOptions cluster_options(std::int32_t workers, const std::string& placement) {
  ClusterOptions opts;
  opts.workers = workers;
  opts.l1 = CacheConfig{4096, 8};
  opts.llc_words = 32768;
  opts.placement = placement;
  return opts;
}

/// Serves the scenario under `pattern` for `ticks` ticks with a rebalance
/// every other tick; `threads` picks the execution mode.
ClusterReport serve(const Scenario& s, ClusterOptions opts,
                    const workloads::ArrivalPattern& pattern, std::int64_t ticks,
                    bool threads = false) {
  Cluster cluster(std::move(opts));
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    cluster.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
  }
  for (std::int64_t tick = 0; tick < ticks; ++tick) {
    for (TenantId t = 0; t < cluster.tenant_count(); ++t) {
      cluster.push(t, pattern(tick));
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

void expect_identical_reports(const ClusterReport& a, const ClusterReport& b,
                              const std::string& label) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size()) << label;
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].totals, b.tenants[i].totals)
        << label << " tenant " << a.tenants[i].name;
    EXPECT_EQ(a.tenants[i].worker, b.tenants[i].worker) << label;
    EXPECT_EQ(a.tenants[i].migrations, b.tenants[i].migrations) << label;
  }
  EXPECT_EQ(a.aggregate, b.aggregate) << label;
  EXPECT_EQ(a.llc, b.llc) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.makespan(), b.makespan()) << label;
}

// -- the differential gate ---------------------------------------------------

TEST(AdaptivePlacement, NeverFireThresholdsAreBitIdenticalToAffinity) {
  const Scenario s = four_tenant_scenario();
  const std::vector<std::pair<std::string, workloads::ArrivalPattern>> patterns = {
      {"steady-16", workloads::steady_arrivals(16)},
      {"bursty-64", workloads::bursty_arrivals(64, 2)},
      {"on-off-8x8", workloads::on_off_arrivals(8, 8, 8)},
  };
  for (const auto& [name, pattern] : patterns) {
    ClusterOptions adaptive = cluster_options(2, "adaptive");
    adaptive.auto_migrate = false;
    const ClusterReport a = serve(s, adaptive, pattern, 6);
    const ClusterReport b = serve(s, cluster_options(2, "affinity"), pattern, 6);
    expect_identical_reports(a, b, name);
    EXPECT_EQ(a.auto_migrations, 0) << name;  // nothing may ever fire
  }
}

// -- determinism gates -------------------------------------------------------

TEST(AdaptivePlacement, RepeatRunsAreCounterIdenticalIncludingLlc) {
  const Scenario s = four_tenant_scenario();
  const auto pattern = workloads::bursty_arrivals(96, 2);
  const ClusterReport first = serve(s, cluster_options(2, "adaptive"), pattern, 6);
  const ClusterReport again = serve(s, cluster_options(2, "adaptive"), pattern, 6);
  expect_identical_reports(first, again, "adaptive repeat");
  EXPECT_EQ(first.auto_migrations, again.auto_migrations);
  EXPECT_EQ(first.migration_noops, again.migration_noops);
}

TEST(AdaptivePlacement, ThreadModeMatchesVirtualTimePerTenant) {
  const Scenario s = four_tenant_scenario();
  const auto pattern = workloads::bursty_arrivals(96, 2);
  for (const std::int32_t workers : {1, 2, 4}) {
    const ClusterReport virtual_time =
        serve(s, cluster_options(workers, "adaptive"), pattern, 6, false);
    const ClusterReport threaded =
        serve(s, cluster_options(workers, "adaptive"), pattern, 6, true);
    ASSERT_EQ(virtual_time.tenants.size(), threaded.tenants.size());
    for (std::size_t i = 0; i < virtual_time.tenants.size(); ++i) {
      EXPECT_EQ(virtual_time.tenants[i].totals, threaded.tenants[i].totals)
          << workers << " workers, tenant " << virtual_time.tenants[i].name;
      EXPECT_EQ(virtual_time.tenants[i].worker, threaded.tenants[i].worker) << workers;
      EXPECT_EQ(virtual_time.tenants[i].migrations, threaded.tenants[i].migrations)
          << workers;
    }
    EXPECT_EQ(threaded.aggregate, virtual_time.aggregate) << workers;
    EXPECT_EQ(threaded.migrations, virtual_time.migrations) << workers;
    EXPECT_EQ(threaded.auto_migrations, virtual_time.auto_migrations) << workers;
    // Total LLC probes equal summed private misses in both modes even
    // though the hit/miss split varies under real interleaving.
    EXPECT_EQ(threaded.llc.accesses, virtual_time.llc.accesses) << workers;
  }
}

// -- the migration model -----------------------------------------------------

/// An oversubscription scenario: two sessions whose ~1600-word working sets
/// each fit a 2048-word private L1 alone but not together (and stay well
/// under the express cutoff), plus two lightweight ones. Cold admission
/// places hot-0 and hot-2 on worker 0, the lights on worker 1.
Scenario oversubscribed_scenario() {
  Scenario s;
  s.tenants.emplace_back("hot-0", workloads::uniform_pipeline(4, 400));
  s.tenants.emplace_back("cold-1", workloads::uniform_pipeline(4, 40));
  s.tenants.emplace_back("hot-2", workloads::uniform_pipeline(4, 400));
  s.tenants.emplace_back("cold-3", workloads::uniform_pipeline(4, 40));
  for (const auto& [name, g] : s.tenants) {
    s.partitions.push_back(partition::pipeline_optimal_partition(g, 3 * 1024).partition);
  }
  return s;
}

ClusterOptions tiny_l1_options(const std::string& placement) {
  ClusterOptions opts = cluster_options(2, placement);
  opts.l1 = CacheConfig{2048, 8};  // each heavy layout alone ~fills it
  opts.llc_words = 32768;
  return opts;
}

TEST(AdaptivePlacement, OversubscribedWorkerShedsHotSessions) {
  const Scenario s = oversubscribed_scenario();
  const auto pattern = workloads::steady_arrivals(48);

  // Round-robin strands both heavy tenants on worker 0 forever. Run the
  // adaptive policy on the identical admission order: after the first
  // adaptation window it must notice worker 0's hot footprints exceed the
  // L1 and shed one of them.
  Cluster cluster(tiny_l1_options("adaptive"));
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    cluster.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
  }
  for (std::int64_t tick = 0; tick < 8; ++tick) {
    for (TenantId t = 0; t < cluster.tenant_count(); ++t) {
      cluster.push(t, pattern(tick));
    }
    cluster.run_until_idle();  // adapt() runs at every entry
  }
  cluster.drain_all();
  const ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  EXPECT_GT(report.auto_migrations, 0);
  // The two heavy sessions must not share a worker once adaptation settles.
  EXPECT_NE(report.tenants[0].worker, report.tenants[2].worker);
}

TEST(AdaptivePlacement, MigrationsConserveDataflowCounters) {
  const Scenario s = oversubscribed_scenario();
  const auto pattern = workloads::steady_arrivals(48);
  const auto run = [&](bool auto_migrate) {
    ClusterOptions opts = tiny_l1_options("adaptive");
    opts.auto_migrate = auto_migrate;
    Cluster cluster(std::move(opts));
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
      cluster.admit(s.tenants[i].first, s.tenants[i].second, s.partitions[i], {}, 1024);
    }
    for (std::int64_t tick = 0; tick < 8; ++tick) {
      for (TenantId t = 0; t < cluster.tenant_count(); ++t) {
        cluster.push(t, pattern(tick));
      }
      cluster.run_until_idle();
    }
    cluster.drain_all();
    ClusterReport report = cluster.report();
    EXPECT_TRUE(test_support::check_invariants(report));
    return report;
  };

  const ClusterReport pinned = run(false);
  const ClusterReport adapted = run(true);
  ASSERT_EQ(pinned.tenants.size(), adapted.tenants.size());
  EXPECT_EQ(pinned.migrations, 0);
  EXPECT_GT(adapted.auto_migrations, 0);
  // Same arrivals, same graphs: migration may only change *cache* traffic.
  // Every dataflow counter is placement-invariant, per tenant.
  for (std::size_t i = 0; i < pinned.tenants.size(); ++i) {
    EXPECT_EQ(pinned.tenants[i].totals.firings, adapted.tenants[i].totals.firings)
        << pinned.tenants[i].name;
    EXPECT_EQ(pinned.tenants[i].totals.source_firings,
              adapted.tenants[i].totals.source_firings);
    EXPECT_EQ(pinned.tenants[i].totals.sink_firings,
              adapted.tenants[i].totals.sink_firings);
    EXPECT_EQ(pinned.tenants[i].outputs, adapted.tenants[i].outputs);
    EXPECT_EQ(pinned.tenants[i].steps, adapted.tenants[i].steps);
  }
  EXPECT_EQ(pinned.aggregate.firings, adapted.aggregate.firings);
  EXPECT_EQ(pinned.aggregate.source_firings, adapted.aggregate.source_firings);
  EXPECT_EQ(pinned.aggregate.sink_firings, adapted.aggregate.sink_firings);
  EXPECT_EQ(pinned.steps, adapted.steps);
}

// -- migrate() edge cases ----------------------------------------------------

TEST(AdaptivePlacement, MigrateToCurrentWorkerIsACountedNoop) {
  const Scenario s = four_tenant_scenario();
  Cluster cluster(cluster_options(2, "round-robin"));
  cluster.admit(s.tenants[0].first, s.tenants[0].second, s.partitions[0], {}, 1024);
  const WorkerId home = cluster.worker_of(0);
  cluster.migrate(0, home);
  cluster.migrate(0, home);
  const ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  EXPECT_EQ(report.migrations, 0);
  EXPECT_EQ(report.tenants[0].migrations, 0);
  EXPECT_EQ(report.migration_noops, 2);
  EXPECT_EQ(cluster.worker_of(0), home);
}

TEST(AdaptivePlacement, MigrateUnknownTenantNamesTheLiveOnes) {
  const Scenario s = four_tenant_scenario();
  Cluster cluster(cluster_options(2, "round-robin"));
  cluster.admit(s.tenants[0].first, s.tenants[0].second, s.partitions[0], {}, 1024);
  cluster.admit(s.tenants[1].first, s.tenants[1].second, s.partitions[1], {}, 1024);
  try {
    cluster.migrate(9, 0);
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown tenant id 9"), std::string::npos) << what;
    EXPECT_NE(what.find("uniform-0"), std::string::npos) << what;
    EXPECT_NE(what.find("tail-1"), std::string::npos) << what;
  }
  // The worker-range contract still holds for live tenants.
  EXPECT_THROW(cluster.migrate(0, 7), ContractViolation);
}

TEST(AdaptivePlacement, RebalanceOnEmptyClusterReturnsZero) {
  for (const std::string placement :
       {"round-robin", "least-loaded", "affinity", "adaptive"}) {
    Cluster cluster(cluster_options(2, placement));
    EXPECT_EQ(cluster.rebalance(), 0) << placement;
    EXPECT_EQ(cluster.adapt(), 0) << placement;  // quiescent and empty: no-op
    const ClusterReport report = cluster.report();
    EXPECT_TRUE(test_support::check_invariants(report)) << placement;
    EXPECT_EQ(report.migrations, 0) << placement;
  }
}

// -- the estimator's arithmetic ----------------------------------------------

TEST(FootprintEstimator, SeedsFromLayoutAndStaysColdUntilActive) {
  placement::FootprintEstimator est(/*budget_words=*/4096);
  const std::int32_t s = 0;
  est.add_session(s, /*layout_words=*/1000, /*state_words=*/300);
  EXPECT_EQ(est.footprint_words(s), 1000);  // the gain-analysis seed
  EXPECT_FALSE(est.hot(s));                 // nothing observed yet
  EXPECT_FALSE(est.express(s));
}

TEST(FootprintEstimator, ActiveWindowFollowsResidencyWithinBounds) {
  placement::FootprintEstimator est(4096);
  const std::int32_t s = 0;
  est.add_session(s, 1000, 300);

  placement::FootprintObservation o;
  o.accesses = 1000;  // active window, low miss rate
  o.misses = 10;
  o.resident_words = 640;
  est.observe(s, o);
  EXPECT_TRUE(est.hot(s));
  EXPECT_EQ(est.footprint_words(s), 640);  // trusts residency
  EXPECT_EQ(est.window_miss_permille(s), 10);

  // Residency below the state floor clamps up; above the layout clamps down.
  o.accesses += 1000;
  o.misses += 10;
  o.resident_words = 100;
  est.observe(s, o);
  EXPECT_EQ(est.footprint_words(s), 300);  // state floor
  o.accesses += 1000;
  o.misses += 10;
  o.resident_words = 5000;
  est.observe(s, o);
  EXPECT_EQ(est.footprint_words(s), 1000);  // layout cap
}

TEST(FootprintEstimator, ThrashWindowSnapsBackToTheFullLayout) {
  placement::FootprintEstimator est(4096);
  const std::int32_t s = 0;
  est.add_session(s, 1000, 300);
  placement::FootprintObservation o;
  o.accesses = 1000;
  o.misses = 700;        // 700 permille >= kThrashMissPermille (500)
  o.resident_words = 64; // residency lies when the session cycles its span
  est.observe(s, o);
  EXPECT_EQ(est.footprint_words(s), 1000);
  EXPECT_TRUE(est.hot(s));
}

TEST(FootprintEstimator, QuietWindowsDemoteToColdAfterTheConfiguredCount) {
  placement::FootprintEstimator est(4096);
  const std::int32_t s = 0;
  est.add_session(s, 1000, 300);
  placement::FootprintObservation o;
  o.accesses = 1000;
  o.misses = 10;
  o.resident_words = 640;
  est.observe(s, o);
  ASSERT_TRUE(est.hot(s));
  est.observe(s, o);  // no new accesses: quiet window 1 of kColdWindows (2)
  EXPECT_TRUE(est.hot(s));
  est.observe(s, o);  // quiet window 2 of 2: demoted
  EXPECT_FALSE(est.hot(s));
}

TEST(FootprintEstimator, ExpressSessionsAreNeverHot) {
  // kExpressPermille (2000): express beyond 2x the budget.
  placement::FootprintEstimator est(/*budget_words=*/1000);
  const std::int32_t s = 0;
  est.add_session(s, /*layout_words=*/5000, /*state_words=*/100);
  placement::FootprintObservation o;
  o.accesses = 10000;
  o.misses = 9000;  // thrashing: estimate snaps to the 5000-word layout
  o.resident_words = 900;
  est.observe(s, o);
  EXPECT_TRUE(est.express(s));
  EXPECT_FALSE(est.hot(s));  // too big to cache: never charged as pressure
}

TEST(FootprintEstimator, RemovingASessionReclaimsItsEntry) {
  placement::FootprintEstimator est(4096);
  // Churn: sessions come and go under ever-growing ids, a few live at once.
  for (std::int32_t id = 0; id < 1000; ++id) {
    est.add_session(id, 1000, 300);
    if (id >= 3) est.remove_session(id - 3);
  }
  EXPECT_EQ(est.session_count(), 3);
  EXPECT_FALSE(est.tracks(996));
  EXPECT_TRUE(est.tracks(997));
  EXPECT_EQ(est.footprint_words(999), 1000);
  EXPECT_THROW(est.footprint_words(5), ContractViolation);
  EXPECT_THROW(est.observe(5, placement::FootprintObservation{}), ContractViolation);
  EXPECT_THROW(est.remove_session(5), ContractViolation);
  EXPECT_THROW(est.add_session(999, 1000, 300), ContractViolation);
  // A removed id may be registered again, from a fresh seed.
  est.add_session(5, 2000, 300);
  EXPECT_EQ(est.footprint_words(5), 2000);
}

TEST(FootprintEstimator, RejectsNonsenseConfigurations) {
  EXPECT_THROW(placement::FootprintEstimator{-1}, Error);  // a negative budget
}

}  // namespace
}  // namespace ccs::core
