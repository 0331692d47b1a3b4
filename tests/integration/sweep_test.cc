// Parameterized grids over scheduler knobs: every (c-bound, T-multiplier,
// B) combination must yield a valid, lower-bound-respecting plan, and the
// classified miss counters must stay coherent across the whole app suite.
#include <gtest/gtest.h>

#include <tuple>

#include "core/planner.h"
#include "core/scheduler.h"
#include "schedule/validate.h"
#include "workloads/pipelines.h"
#include "workloads/streamit.h"

namespace ccs {
namespace {

class PlannerGrid
    : public ::testing::TestWithParam<std::tuple<double, std::int64_t, std::int64_t>> {};

TEST_P(PlannerGrid, PlansValidateAndSimulate) {
  const auto [c_bound, t_mult, b] = GetParam();
  const auto g = workloads::uniform_pipeline(16, 200);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = b;
  opts.c_bound = c_bound;
  opts.t_multiplier = t_mult;
  const auto plan = core::Planner(g, opts).plan();

  EXPECT_TRUE(partition::is_well_ordered(g, plan.partition));
  EXPECT_LE(partition::max_component_state(g, plan.partition),
            static_cast<std::int64_t>(c_bound * 512.0));
  const auto report = schedule::check_schedule(g, plan.schedule);
  EXPECT_TRUE(report.ok) << report.problem;
  EXPECT_GE(plan.batch_t, 512 * t_mult);  // T >= M * multiplier for unit gains

  const auto r = core::simulate(g, plan.schedule,
                                iomodel::CacheConfig{8 * 512, b},
                                plan.schedule.outputs_per_period);
  EXPECT_EQ(r.state_misses + r.channel_misses + r.io_misses, r.cache.misses);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlannerGrid,
    ::testing::Combine(::testing::Values(1.0, 2.0, 3.0),
                       ::testing::Values<std::int64_t>(1, 2),
                       ::testing::Values<std::int64_t>(4, 16)));

class SuiteSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuiteSweep, EveryAppPlansAndClassifiesCoherently) {
  const auto suite = workloads::streamit_suite();
  ASSERT_LT(GetParam(), suite.size());
  const auto& app = suite[GetParam()];
  const auto& g = app.graph;
  core::PlannerOptions opts;
  opts.cache.capacity_words = std::max<std::int64_t>(g.max_state(), g.total_state() / 4);
  opts.cache.block_words = 8;
  const auto plan = core::Planner(g, opts).plan();
  EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok) << app.name;
  const auto r = core::simulate(g, plan.schedule,
                                iomodel::CacheConfig{4 * opts.cache.capacity_words, 8},
                                plan.schedule.outputs_per_period);
  EXPECT_EQ(r.state_misses + r.channel_misses + r.io_misses, r.cache.misses) << app.name;
  EXPECT_GT(r.sink_firings, 0) << app.name;
}

INSTANTIATE_TEST_SUITE_P(Apps, SuiteSweep,
                         ::testing::Range<std::size_t>(0, 12));

}  // namespace
}  // namespace ccs
