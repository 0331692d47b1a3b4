// Breadth sweeps across the full application suite: every auxiliary
// facility (DOT, schedule serialization, hierarchy equivalences)
// must handle every workload, not just the ones its unit tests picked.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "iomodel/hierarchy.h"
#include "partition/dag_greedy.h"
#include "partition/dot.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "schedule/serialize.h"
#include "schedule/validate.h"
#include "sdf/serialize.h"
#include "workloads/streamit.h"

namespace ccs {
namespace {

class AppSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  const workloads::NamedGraph& app() const {
    static const auto suite = workloads::streamit_suite();
    return suite[GetParam()];
  }
};

TEST_P(AppSweep, DotExportMentionsEveryModule) {
  const auto& g = app().graph;
  const auto p = partition::dag_greedy_partition(g, std::max<std::int64_t>(
                                                        g.total_state() / 3, g.max_state()));
  const auto dot = partition::to_dot(g, p);
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_NE(dot.find('"' + g.node(v).name + '"'), std::string::npos)
        << app().name << " / " << g.node(v).name;
  }
}

TEST_P(AppSweep, GraphSerializationRoundTrips) {
  const auto& g = app().graph;
  const auto parsed = sdf::from_text(sdf::to_text(g));
  EXPECT_EQ(parsed.node_count(), g.node_count());
  EXPECT_EQ(parsed.edge_count(), g.edge_count());
  EXPECT_EQ(sdf::to_text(parsed), sdf::to_text(g));  // canonical form is a fixpoint
}

TEST_P(AppSweep, ScheduleSerializationRoundTrips) {
  const auto& g = app().graph;
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  const auto parsed = schedule::from_text(g, schedule::to_text(g, s));
  EXPECT_EQ(parsed.period, s.period);
  EXPECT_TRUE(schedule::check_schedule(g, parsed).ok) << app().name;
}

TEST_P(AppSweep, SingleLevelHierarchyMatchesFlatLru) {
  const auto& g = app().graph;
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  const std::int64_t words = std::max<std::int64_t>(2 * g.max_state(), 1024);

  iomodel::LruCache flat(iomodel::CacheConfig{words, 8});
  runtime::Engine flat_engine(g, s.buffer_caps, flat);
  const auto flat_run = flat_engine.run(s.period);

  iomodel::HierarchyCache stacked({words}, 8);
  runtime::Engine stacked_engine(g, s.buffer_caps, stacked);
  const auto stacked_run = stacked_engine.run(s.period);

  EXPECT_EQ(flat_run.cache.misses, stacked_run.cache.misses) << app().name;
}

TEST_P(AppSweep, DeeperLevelsMissLess) {
  const auto& g = app().graph;
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  iomodel::HierarchyCache cache({256, 1024, 8192}, 8);
  runtime::Engine engine(g, s.buffer_caps, cache);
  (void)engine.run(s.period);
  EXPECT_LE(cache.level_stats(1).misses, cache.level_stats(0).misses) << app().name;
  EXPECT_LE(cache.level_stats(2).misses, cache.level_stats(1).misses) << app().name;
}

INSTANTIATE_TEST_SUITE_P(Apps, AppSweep, ::testing::Range<std::size_t>(0, 12));

}  // namespace
}  // namespace ccs
