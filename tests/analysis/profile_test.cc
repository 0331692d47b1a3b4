#include "analysis/profile.h"

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/scheduler.h"
#include "workloads/pipelines.h"

namespace ccs::analysis {
namespace {

TEST(Profile, SharesSumToOneAndCoverAllModules) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  const auto plan = core::Planner(g, opts).plan();
  const auto r = core::simulate(g, plan.schedule,
                                iomodel::CacheConfig{4 * 512, 8},
                                plan.schedule.outputs_per_period);
  const auto profiles = profile_components(g, plan.partition, r);
  ASSERT_EQ(profiles.size(), static_cast<std::size_t>(plan.partition.num_components));
  double share = 0;
  std::int64_t misses = 0;
  std::int32_t modules = 0;
  std::int64_t state = 0;
  for (const auto& prof : profiles) {
    share += prof.miss_share;
    misses += prof.misses;
    modules += prof.modules;
    state += prof.state_words;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_EQ(misses, r.cache.misses);
  EXPECT_EQ(modules, g.node_count());
  EXPECT_EQ(state, g.total_state());
}

TEST(Profile, RequiresAttribution) {
  const auto g = ccs::workloads::uniform_pipeline(4, 8);
  const auto p = partition::Partition::whole(g);
  runtime::RunResult r;  // no node_misses
  EXPECT_THROW(profile_components(g, p, r), ContractViolation);
}

TEST(Profile, FormatsAsTable) {
  std::vector<ComponentProfile> profiles(2);
  profiles[0] = {0, 400, 2, 100, 0.25};
  profiles[1] = {1, 800, 4, 300, 0.75};
  const auto text = format_profiles(profiles);
  EXPECT_NE(text.find("component"), std::string::npos);
  EXPECT_NE(text.find("75.0%"), std::string::npos);
}

}  // namespace
}  // namespace ccs::analysis
