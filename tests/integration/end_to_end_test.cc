// End-to-end integration: plan -> simulate across every workload family,
// with the theory's ordering relations checked on real miss counts.
#include <gtest/gtest.h>

#include "analysis/lower_bound.h"
#include "core/planner.h"
#include "core/scheduler.h"
#include "schedule/kohli.h"
#include "schedule/naive.h"
#include "schedule/scaled.h"
#include "schedule/validate.h"
#include "sdf/serialize.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs {
namespace {

TEST(EndToEnd, PlanAndSimulateEveryStreamItApp) {
  for (const auto& app : workloads::streamit_suite()) {
    core::PlannerOptions opts;
    opts.cache.capacity_words = std::max<std::int64_t>(app.graph.max_state() * 2, 1024);
    opts.cache.block_words = 8;
    const auto plan = core::Planner(app.graph, opts).plan();
    ASSERT_TRUE(schedule::check_schedule(app.graph, plan.schedule).ok) << app.name;
    const iomodel::CacheConfig sim{4 * opts.cache.capacity_words, 8};
    const auto r = core::simulate(app.graph, plan.schedule, sim,
                                  plan.schedule.outputs_per_period);
    EXPECT_GT(r.sink_firings, 0) << app.name;
    EXPECT_GT(r.cache.misses, 0) << app.name;
  }
}

TEST(EndToEnd, LowerBoundHoldsForAllSchedulersOnPipelines) {
  // Theorem 3: no schedule can beat (T/B) * sum of witness gains. Verify on
  // real miss counts for every scheduler in the library.
  Rng rng(101);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = workloads::random_pipeline(16, 64, 256, 3, rng);
    const std::int64_t m = 512;
    const std::int64_t b = 8;
    const auto bound = analysis::pipeline_lower_bound(g, m);
    if (bound.bandwidth_term.is_zero()) continue;

    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();

    std::vector<schedule::Schedule> schedules;
    schedules.push_back(plan.schedule);
    schedules.push_back(schedule::naive_minimal_buffer_schedule(g));
    schedules.push_back(schedule::scaled_schedule(g, m));
    schedules.push_back(schedule::kohli_schedule(g, m));

    const iomodel::CacheConfig sim{m, b};  // bound is stated for cache size M
    for (const auto& s : schedules) {
      const std::int64_t target = 4 * s.outputs_per_period;
      const auto r = core::simulate(g, s, sim, target);
      const double lb = bound.misses(r.source_firings, b);
      EXPECT_GE(static_cast<double>(r.cache.misses) * 4.0, lb)
          << s.name << " trial " << trial;
    }
  }
}

TEST(EndToEnd, PartitionedWithinConstantOfLowerBound) {
  // Theorem 5: the partitioned schedule on an O(M) cache costs O(LB).
  Rng rng(103);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = workloads::random_pipeline(20, 64, 256, 3, rng);
    const std::int64_t m = 512;
    const std::int64_t b = 8;
    const auto bound = analysis::pipeline_lower_bound(g, m);
    if (bound.bandwidth_term.is_zero()) continue;

    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();
    const iomodel::CacheConfig sim{8 * m, b};  // O(1) augmentation
    const auto r = core::simulate(g, plan.schedule, sim, 4 * plan.schedule.outputs_per_period);
    const double lb = bound.misses(r.source_firings, b);
    // Constant factor: generous 64x envelope (covers external IO, state
    // loads, and the Omega constants the bound drops).
    EXPECT_LE(static_cast<double>(r.cache.misses), 64.0 * lb + 1000.0)
        << "trial " << trial;
  }
}

TEST(EndToEnd, SerializationRoundTripsThroughPlanning) {
  const auto g = workloads::fm_radio(6);
  const auto text = sdf::to_text(g);
  const auto parsed = sdf::from_text(text);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 1024;
  opts.cache.block_words = 8;
  const auto plan1 = core::Planner(g, opts).plan();
  const auto plan2 = core::Planner(parsed, opts).plan();
  EXPECT_EQ(plan1.partition.assignment, plan2.partition.assignment);
  EXPECT_EQ(plan1.schedule.period, plan2.schedule.period);
}

TEST(EndToEnd, HomogeneousDagPartitionedVsNaive) {
  Rng rng(107);
  workloads::LayeredSpec spec;
  spec.layers = 6;
  spec.width = 3;
  spec.state_lo = 150;
  spec.state_hi = 250;
  const auto g = layered_homogeneous_dag(spec, rng);

  core::PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  opts.partitioner = "dag-refined";
  const auto plan = core::Planner(g, opts).plan();
  const auto naive = schedule::naive_minimal_buffer_schedule(g);

  const iomodel::CacheConfig sim{4 * 512, 8};
  const std::int64_t target = 2048;
  const auto r_part = core::simulate(g, plan.schedule, sim, target);
  const auto r_naive = core::simulate(g, naive, sim, target);
  EXPECT_LT(r_part.misses_per_output(), r_naive.misses_per_output());
}

TEST(EndToEnd, SetAssociativeCacheShowsSameOrdering) {
  // The paper's model is fully associative; conclusions should survive
  // 8-way associativity (realistic geometry).
  const auto g = workloads::uniform_pipeline(16, 200);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  const auto plan = core::Planner(g, opts).plan();
  const auto naive = schedule::naive_minimal_buffer_schedule(g);

  const iomodel::CacheConfig geometry{2048, 8};
  auto run_on = [&](const schedule::Schedule& s) {
    iomodel::SetAssociativeCache cache(geometry, 8);
    runtime::Engine engine(g, s.buffer_caps, cache);
    runtime::RunResult total;
    const auto rounds = schedule::periods_for_outputs(s, 2048);
    for (std::int64_t i = 0; i < rounds; ++i) {
      total += engine.run(s.period);
    }
    return total;
  };
  const auto r_part = run_on(plan.schedule);
  const auto r_naive = run_on(naive);
  EXPECT_LT(r_part.misses_per_output(), r_naive.misses_per_output());
}

}  // namespace
}  // namespace ccs
