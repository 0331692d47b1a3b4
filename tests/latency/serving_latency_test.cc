// The latency subsystem end to end on a serving cluster: the uniform
// strict-extension guarantee, thread-mode ≡ virtual-time percentiles under
// non-trivial models, and exact histogram survival across the swap tier.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/planner.h"
#include "latency/histogram.h"
#include "session/swap.h"
#include "../support/cluster_invariants.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

struct Scenario {
  sdf::SdfGraph graph;
  partition::Partition partition;
  std::int64_t m = 0;
};

Scenario make_scenario() {
  Scenario s;
  s.graph = workloads::uniform_pipeline(12, 120);
  PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  const Planner planner(s.graph, opts);
  s.partition = planner.plan("pipeline-dp").partition;
  s.m = 512;
  return s;
}

ClusterReport run_scenario(const Scenario& s, ClusterOptions opts,
                           bool threads, bool swap_between_ticks = false) {
  Cluster cluster(opts);
  for (int t = 0; t < 4; ++t) {
    cluster.admit("tenant-" + std::to_string(t), s.graph, s.partition, {}, s.m);
  }
  const workloads::ArrivalPattern arrival = workloads::bursty_arrivals(64, 8);
  for (std::int64_t tick = 0; tick < 24; ++tick) {
    for (TenantId t = 0; t < cluster.tenant_count(); ++t) {
      cluster.push(t, arrival(tick));
    }
    if (threads) {
      cluster.run_threads();
    } else {
      cluster.run_until_idle();
    }
    if (swap_between_ticks) cluster.swap_out_idle();
  }
  cluster.drain_all();
  ClusterReport report = cluster.report();
  EXPECT_TRUE(test_support::check_invariants(report));
  return report;
}

TEST(ServingLatency, UniformModelCostEqualsFirings) {
  // The strict-extension guarantee in-process: under "uniform" (the
  // default) every step costs exactly its firing count, so the aggregate
  // cost IS the aggregate firing count and worker busy time advances
  // exactly as it did before the latency subsystem existed.
  const Scenario s = make_scenario();
  ClusterOptions opts;
  opts.workers = 2;
  const ClusterReport report = run_scenario(s, opts, /*threads=*/false);
  EXPECT_EQ(report.cost_model, "uniform");
  EXPECT_EQ(report.aggregate.cost, report.aggregate.firings);
  std::int64_t worker_cost = 0;
  for (const ClusterWorkerReport& w : report.workers) {
    worker_cost += w.busy;
    EXPECT_EQ(w.latency.sum(), w.busy);  // every busy cycle is a sample
  }
  EXPECT_EQ(worker_cost, report.aggregate.cost);
}

TEST(ServingLatency, ThreadModePercentilesMatchVirtualTime) {
  // Costs are priced from private-L1 deltas and static configuration only,
  // so every histogram -- per tenant AND per worker -- must be
  // bit-identical between real threads and lockstep virtual time.
  const Scenario s = make_scenario();
  for (const char* model : {"two-level", "llc-shared"}) {
    ClusterOptions opts;
    opts.workers = 3;
    opts.llc_shards = 2;
    opts.cost_model = model;
    const ClusterReport virt = run_scenario(s, opts, /*threads=*/false);
    const ClusterReport thr = run_scenario(s, opts, /*threads=*/true);
    ASSERT_EQ(virt.tenants.size(), thr.tenants.size());
    for (std::size_t i = 0; i < virt.tenants.size(); ++i) {
      EXPECT_EQ(virt.tenants[i].totals, thr.tenants[i].totals) << model << " " << i;
    }
    ASSERT_EQ(virt.workers.size(), thr.workers.size());
    for (std::size_t w = 0; w < virt.workers.size(); ++w) {
      EXPECT_EQ(virt.workers[w].busy, thr.workers[w].busy) << model << " " << w;
      EXPECT_EQ(virt.workers[w].latency, thr.workers[w].latency) << model << " " << w;
    }
    EXPECT_EQ(virt.aggregate, thr.aggregate) << model;
    EXPECT_GT(virt.aggregate.latency.p99(), 0) << model;
  }
}

TEST(ServingLatency, SwapRoundTripPreservesHistogramsExactly) {
  // Aggressively shedding idle sessions between ticks forces every tenant
  // through pack -> unpack -> rehydrate repeatedly; the final report must
  // match the never-swapped run exactly, histograms included.
  const Scenario s = make_scenario();
  ClusterOptions opts;
  opts.workers = 2;
  opts.cost_model = "two-level";
  opts.swap = true;
  const ClusterReport swapped =
      run_scenario(s, opts, /*threads=*/false, /*swap_between_ticks=*/true);
  const ClusterReport straight = run_scenario(s, opts, /*threads=*/false);
  ASSERT_EQ(swapped.tenants.size(), straight.tenants.size());
  for (std::size_t i = 0; i < swapped.tenants.size(); ++i) {
    EXPECT_EQ(swapped.tenants[i].totals, straight.tenants[i].totals) << i;
    EXPECT_EQ(swapped.tenants[i].totals.latency.p99(),
              straight.tenants[i].totals.latency.p99())
        << i;
  }
  EXPECT_EQ(swapped.aggregate, straight.aggregate);
  EXPECT_GT(swapped.lifecycle.swap_outs, 0);  // the shedding actually happened
}

TEST(ServingLatency, SwapImageCarriesHistogramState) {
  // Codec-level check (v2 layout): a snapshot with a populated histogram
  // survives pack -> unpack bit-for-bit, and a bucket-count mismatch is a
  // detected corruption, not a silent misparse.
  session::SessionSnapshot snap;
  snap.engine.channel_heads = {1, 2};
  snap.engine.channel_sizes = {3, 4};
  snap.engine.fired = {5, 6, 7};
  snap.totals.firings = 40;
  snap.totals.cost = 1234;
  for (std::int64_t v : {0, 1, 7, 64, 900, 4097}) snap.totals.latency.record(v);
  snap.steps = 9;
  const session::SwapImage image = session::SwapImage::pack(snap);
  const session::SessionSnapshot back = image.unpack();
  EXPECT_EQ(back, snap);
  EXPECT_EQ(back.totals.latency.p99(), snap.totals.latency.p99());
  EXPECT_EQ(back.totals.cost, 1234);
}

TEST(ServingLatency, SloAttainmentIsReportedPerTenant) {
  const Scenario s = make_scenario();
  ClusterOptions opts;
  opts.workers = 2;
  opts.cost_model = "two-level";
  opts.slo_p99 = 1;  // impossible target: every tenant must violate it
  const ClusterReport tight = run_scenario(s, opts, /*threads=*/false);
  EXPECT_EQ(tight.slo_p99, 1);
  for (const ClusterTenantReport& t : tight.tenants) {
    EXPECT_GT(t.totals.latency.p99(), tight.slo_p99);
  }
}

}  // namespace
}  // namespace ccs::core
