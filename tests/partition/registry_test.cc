#include "partition/registry.h"

#include <gtest/gtest.h>

#include "core/planner.h"
#include "schedule/validate.h"
#include "sdf/gain.h"
#include "util/error.h"
#include "workloads/pipelines.h"
#include "workloads/streamit.h"

namespace ccs::partition {
namespace {

StrategyContext ctx_for(std::int64_t m) {
  StrategyContext ctx;
  ctx.cache_words = m;
  ctx.state_bound = 3 * m;
  return ctx;
}

TEST(PartitionRegistry, BuiltinsRegistered) {
  auto& r = Registry::global();
  for (const std::string name :
       {"pipeline-dp", "pipeline-greedy", "dag-greedy", "dag-greedy-gain", "dag-refined",
        "anneal", "agglomerative", "exact"}) {
    EXPECT_TRUE(r.contains(name)) << name;
    EXPECT_FALSE(r.find(name).description.empty()) << name;
  }
}

TEST(PartitionRegistry, UnknownKeyErrorListsEveryValidKey) {
  const auto g = workloads::uniform_pipeline(6, 100);
  try {
    Registry::global().build("nope", g, ctx_for(512));
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown partitioner 'nope'"), std::string::npos) << what;
    for (const auto& key : Registry::global().keys()) {
      EXPECT_NE(what.find(key), std::string::npos) << "missing " << key << " in: " << what;
    }
  }
}

TEST(PartitionRegistry, DuplicateRegistrationThrows) {
  Registry r;
  register_builtin_partitioners(r);
  EXPECT_THROW(register_builtin_partitioners(r), Error);
  EXPECT_THROW(
      r.add("dag-greedy", {[](const sdf::SdfGraph& g, const StrategyContext&) {
                             return Partition::whole(g);
                           },
                           nullptr, "dup"}),
      Error);
  EXPECT_THROW(r.add("", {nullptr, nullptr, "empty name"}), Error);
}

TEST(PartitionRegistry, ApplicabilityGatesPipelineAndExactStrategies) {
  auto& r = Registry::global();
  const auto pipeline = workloads::uniform_pipeline(6, 100);
  const auto dag = workloads::fm_radio(10);  // 25 nodes, not a pipeline

  auto ctx = ctx_for(1024);
  const auto pipeline_keys = r.applicable_keys(pipeline, ctx);
  EXPECT_EQ(pipeline_keys.size(), r.keys().size());  // everything applies

  const auto dag_keys = r.applicable_keys(dag, ctx);
  for (const auto& key : dag_keys) {
    EXPECT_NE(key, "pipeline-dp");
    EXPECT_NE(key, "pipeline-greedy");
    EXPECT_NE(key, "exact");
  }
  EXPECT_EQ(dag_keys.size(), r.keys().size() - 3);
}

TEST(PartitionRegistry, CustomStrategyRoundTripsThroughPlanner) {
  // A custom strategy in an isolated registry: split the pipeline into
  // front/back halves. The planner must resolve it by name and build a
  // valid schedule from its partition.
  Registry r;
  register_builtin_partitioners(r);
  r.add("halves", {[](const sdf::SdfGraph& g, const StrategyContext&) {
                     Partition p;
                     p.num_components = 2;
                     p.assignment.assign(static_cast<std::size_t>(g.node_count()), 0);
                     for (sdf::NodeId v = g.node_count() / 2; v < g.node_count(); ++v) {
                       p.assignment[static_cast<std::size_t>(v)] = 1;
                     }
                     return p;
                   },
                   nullptr, "front/back split"});

  const auto g = workloads::uniform_pipeline(8, 100);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  opts.partitioner = "halves";
  const core::Planner planner(g, opts, &r);
  const auto plan = planner.plan();
  EXPECT_EQ(plan.partitioner_name, "halves");
  EXPECT_EQ(plan.partition.num_components, 2);
  EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok);

  // The isolated registry does not leak into the global one.
  EXPECT_FALSE(Registry::global().contains("halves"));
}

TEST(PartitionRegistry, EveryBuiltinBuildsAValidPartitionOnAPipeline) {
  const auto g = workloads::uniform_pipeline(10, 150);
  const auto ctx = ctx_for(512);
  const sdf::GainMap gains(g);
  for (const auto& name : Registry::global().applicable_keys(g, ctx)) {
    const auto p = Registry::global().build(name, g, ctx);
    EXPECT_TRUE(validate_partition(g, p).empty()) << name;
    EXPECT_TRUE(is_well_ordered(g, p)) << name;
    EXPECT_TRUE(is_bounded(g, p, ctx.state_bound)) << name;
  }
}

}  // namespace
}  // namespace ccs::partition
