#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/planner.h"
#include "schedule/naive.h"
#include "schedule/validate.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs::core {
namespace {

PlannerOptions small_cache() {
  PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  return opts;
}

TEST(Planner, AutoPicksPipelineDpForPipelines) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const auto plan = core::Planner(g, small_cache()).plan();
  EXPECT_EQ(plan.partitioner_name, "pipeline-dp");
  EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok);
  EXPECT_GT(plan.batch_t, 0);
}

TEST(Planner, AutoPicksExactForSmallDags) {
  Rng rng(71);
  ccs::workloads::LayeredSpec spec;
  spec.layers = 3;
  spec.width = 3;
  spec.state_lo = 50;
  spec.state_hi = 120;
  const auto g = layered_homogeneous_dag(spec, rng);
  const auto plan = core::Planner(g, small_cache()).plan();
  EXPECT_EQ(plan.partitioner_name, "exact");
  EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok);
}

TEST(Planner, AutoPicksRefinedForLargeDags) {
  const auto g = ccs::workloads::fm_radio(10);  // 25 nodes > exact threshold
  auto opts = small_cache();
  opts.cache.capacity_words = 1024;
  const auto plan = core::Planner(g, opts).plan();
  EXPECT_EQ(plan.partitioner_name, "dag-refined");
  EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok);
}

TEST(Planner, AllExplicitPartitionersWork) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  for (const std::string name :
       {"pipeline-dp", "pipeline-greedy", "dag-greedy", "dag-greedy-gain", "dag-refined",
        "anneal", "agglomerative", "exact"}) {
    auto opts = small_cache();
    opts.partitioner = name;
    const auto plan = core::Planner(g, opts).plan();
    EXPECT_EQ(plan.partitioner_name, name);
    EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok) << "partitioner " << name;
    EXPECT_TRUE(partition::is_well_ordered(g, plan.partition)) << "partitioner " << name;
  }
}

TEST(Planner, UnknownPartitionerNameListsValidKeys) {
  const auto g = ccs::workloads::uniform_pipeline(8, 100);
  auto opts = small_cache();
  opts.partitioner = "no-such-strategy";
  try {
    core::Planner(g, opts).plan();
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-strategy"), std::string::npos) << what;
    EXPECT_NE(what.find("pipeline-dp"), std::string::npos) << what;
    EXPECT_NE(what.find("dag-refined"), std::string::npos) << what;
  }
}

TEST(Planner, SessionPlansAreReusableAndDeterministic) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const Planner planner(g, small_cache());
  const auto a = planner.plan();
  const auto b = planner.plan();
  EXPECT_EQ(a.partition.assignment, b.partition.assignment);
  EXPECT_EQ(a.schedule.period, b.schedule.period);
  EXPECT_EQ(a.partitioner_name, b.partitioner_name);

  // Explicit strategy calls on the same session reuse the cached analysis.
  const auto greedy = planner.plan("dag-greedy");
  EXPECT_EQ(greedy.partitioner_name, "dag-greedy");
  EXPECT_TRUE(schedule::check_schedule(planner.graph(), greedy.schedule).ok);
}

TEST(Planner, PlanAllCoversEveryApplicableStrategy) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const Planner planner(g, small_cache());
  const auto plans = planner.plan_all();
  // On a small pipeline every built-in strategy applies.
  EXPECT_EQ(plans.size(), partition::Registry::global().keys().size());
  for (const auto& plan : plans) {
    EXPECT_TRUE(schedule::check_schedule(g, plan.schedule).ok) << plan.partitioner_name;
  }

  // On a large dag the pipeline-only strategies and the exact DP drop out.
  const auto dag = ccs::workloads::fm_radio(10);
  auto opts = small_cache();
  opts.cache.capacity_words = 1024;
  const Planner dag_planner(dag, opts);
  const auto dag_plans = dag_planner.plan_all();
  EXPECT_EQ(dag_plans.size(), plans.size() - 3);
  for (const auto& plan : dag_plans) {
    EXPECT_NE(plan.partitioner_name, "pipeline-dp");
    EXPECT_NE(plan.partitioner_name, "pipeline-greedy");
    EXPECT_NE(plan.partitioner_name, "exact");
  }
}

/// Field-for-field equality of two plans, down to every period firing.
void expect_same_plan(const Plan& a, const Plan& b) {
  const std::string& tag = a.partitioner_name;
  EXPECT_EQ(a.partitioner_name, b.partitioner_name);
  EXPECT_EQ(a.partition.num_components, b.partition.num_components) << tag;
  EXPECT_EQ(a.partition.assignment, b.partition.assignment) << tag;
  EXPECT_EQ(a.schedule.name, b.schedule.name) << tag;
  EXPECT_EQ(a.schedule.period, b.schedule.period) << tag;
  EXPECT_EQ(a.schedule.buffer_caps, b.schedule.buffer_caps) << tag;
  EXPECT_EQ(a.schedule.inputs_per_period, b.schedule.inputs_per_period) << tag;
  EXPECT_EQ(a.schedule.outputs_per_period, b.schedule.outputs_per_period) << tag;
  EXPECT_EQ(a.batch_t, b.batch_t) << tag;
  EXPECT_EQ(a.partition_bandwidth, b.partition_bandwidth) << tag;
  EXPECT_EQ(a.predicted.state_term, b.predicted.state_term) << tag;
  EXPECT_EQ(a.predicted.buffer_term, b.predicted.buffer_term) << tag;
  EXPECT_EQ(a.predicted.cross_term, b.predicted.cross_term) << tag;
  EXPECT_EQ(a.predicted.misses_per_batch, b.predicted.misses_per_batch) << tag;
  EXPECT_EQ(a.predicted.misses_per_input, b.predicted.misses_per_input) << tag;
}

/// Number of distinct partitions among `plans`.
std::size_t distinct_partitions(const std::vector<Plan>& plans) {
  std::vector<std::vector<std::int32_t>> seen;
  for (const Plan& plan : plans) {
    if (std::find(seen.begin(), seen.end(), plan.partition.assignment) == seen.end()) {
      seen.push_back(plan.partition.assignment);
    }
  }
  return seen.size();
}

TEST(Planner, PlanAllRowsEqualPerStrategyPlans) {
  // plan_all() builds a schedule once per distinct partition and shares it
  // between strategies that agree; every row must still be exactly what
  // plan(key) builds on its own.
  auto opts = small_cache();
  const auto check_rows = [](const Planner& planner) {
    const auto rows = planner.plan_all();
    for (const Plan& row : rows) expect_same_plan(row, planner.plan(row.partitioner_name));
    return rows;
  };

  // FM radio at M = 2048: every strategy returns the one-component partition.
  opts.cache.capacity_words = 2048;
  const auto shared = check_rows(Planner(ccs::workloads::fm_radio(), opts));
  ASSERT_GT(shared.size(), 1u);
  EXPECT_EQ(distinct_partitions(shared), 1u);

  // Filter bank at M = 512: some strategies agree, some do not.
  opts.cache.capacity_words = 512;
  const auto mixed = check_rows(Planner(ccs::workloads::filter_bank(), opts));
  EXPECT_GT(distinct_partitions(mixed), 1u);
  EXPECT_LT(distinct_partitions(mixed), mixed.size());

  // The same cell seen through two strategies that disagree: nothing shared.
  partition::Registry builtins;
  partition::register_builtin_partitioners(builtins);
  partition::Registry disjoint;
  for (const std::string key : {"dag-greedy", "dag-greedy-gain"}) {
    disjoint.add(key, builtins.find(key));
  }
  const auto apart = check_rows(Planner(ccs::workloads::filter_bank(), opts, &disjoint));
  ASSERT_EQ(apart.size(), 2u);
  EXPECT_EQ(distinct_partitions(apart), 2u);
}

TEST(Planner, CompareReportsLowerBoundOnPipelines) {
  const auto g = ccs::workloads::uniform_pipeline(16, 200);
  const Planner planner(g, small_cache());
  const auto rows = planner.compare();
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_TRUE(row.has_lower_bound) << row.partitioner;
    EXPECT_GT(row.predicted_misses_per_input, 0.0) << row.partitioner;
    // No strategy's prediction may undercut the Theorem 3/7 bound: the
    // plan's cross term alone is bandwidth/B >= minBW_3/B.
    EXPECT_GE(row.predicted_misses_per_input * (1.0 + 1e-9),
              row.lower_bound_misses_per_input)
        << row.partitioner;
  }
  // Rows are sorted best-first.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].predicted_misses_per_input, rows[i].predicted_misses_per_input);
  }
  // The pipeline DP is optimal for pipelines: its predicted cost must tie
  // the best row (it may share the top spot with strategies that found the
  // same segmentation).
  const auto dp = std::find_if(rows.begin(), rows.end(), [](const StrategyComparison& r) {
    return r.partitioner == "pipeline-dp";
  });
  ASSERT_NE(dp, rows.end());
  EXPECT_DOUBLE_EQ(dp->predicted_misses_per_input, rows.front().predicted_misses_per_input);
}

TEST(Planner, RejectsInvalidGraphs) {
  sdf::SdfGraph empty;
  EXPECT_THROW(core::Planner(empty, small_cache()).plan(), GraphError);

  sdf::SdfGraph oversized;
  oversized.add_node("a", 100000);
  oversized.add_node("b", 8);
  oversized.add_edge(0, 1, 1, 1);
  EXPECT_THROW(core::Planner(oversized, small_cache()).plan(), GraphError);
}

TEST(Planner, RejectsRateMismatchedGraph) {
  // Diamond with inconsistent rates: the b->d and c->d edges demand
  // different repetition counts for d, so no repetition vector exists.
  // validate_or_throw aggregates all problems into one GraphError.
  sdf::SdfGraph g;
  const auto a = g.add_node("a", 8);
  const auto b = g.add_node("b", 8);
  const auto c = g.add_node("c", 8);
  const auto d = g.add_node("d", 8);
  g.add_edge(a, b, 1, 1);
  g.add_edge(a, c, 1, 1);
  g.add_edge(b, d, 1, 1);
  g.add_edge(c, d, 2, 1);
  EXPECT_THROW(core::Planner(g, small_cache()).plan(), GraphError);
}

TEST(Planner, RejectsZeroCapacityCache) {
  const auto g = ccs::workloads::uniform_pipeline(4, 64);
  auto opts = small_cache();
  opts.cache.capacity_words = 0;
  EXPECT_THROW(core::Planner(g, opts).plan(), MemoryError);
  opts.cache.capacity_words = -64;
  EXPECT_THROW(core::Planner(g, opts).plan(), MemoryError);
  // A cache smaller than one block is equally degenerate.
  opts.cache.capacity_words = 4;
  opts.cache.block_words = 8;
  EXPECT_THROW(core::Planner(g, opts).plan(), MemoryError);
}

TEST(Planner, RejectsNonFiniteOrOutOfRangeCBound) {
  // A NaN, infinite, non-positive, sub-word or int64-overflowing c * M is
  // an input error at construction, before any double-to-integer cast (a
  // zero state bound used to fail a partitioner's internal contract).
  const auto g = ccs::workloads::uniform_pipeline(4, 64);
  for (const double c : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.0, -2.0, 1e300,
                         1e-300}) {
    auto opts = small_cache();
    opts.c_bound = c;
    try {
      (void)core::Planner(g, opts);
      ADD_FAILURE() << "c_bound " << c << " was accepted";
    } catch (const ContractViolation& e) {
      ADD_FAILURE() << "an input error, not a contract violation: " << e.what();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("c_bound"), std::string::npos) << e.what();
    }
  }
  auto opts = small_cache();
  opts.c_bound = 0.5;
  EXPECT_EQ(core::Planner(g, opts).strategy_context().state_bound, 256);
}

TEST(Simulate, RejectsZeroCapacityCache) {
  const auto g = ccs::workloads::uniform_pipeline(4, 64);
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  EXPECT_THROW(core::simulate(g, s, iomodel::CacheConfig{0, 8}, 100),
               MemoryError);
  EXPECT_THROW(core::simulate(g, s, iomodel::CacheConfig{512, 0}, 100),
               MemoryError);
}

TEST(Simulate, RejectsNonPositiveOutputTarget) {
  const auto g = ccs::workloads::uniform_pipeline(4, 64);
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  EXPECT_THROW(core::simulate(g, s, iomodel::CacheConfig{512, 8}, 0),
               ContractViolation);
}

TEST(Planner, PredictionPopulated) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const auto plan = core::Planner(g, small_cache()).plan();
  EXPECT_GT(plan.predicted.misses_per_input, 0.0);
  EXPECT_GE(plan.partition_bandwidth, Rational(0));
}

TEST(Simulate, ReachesOutputTarget) {
  const auto g = ccs::workloads::uniform_pipeline(8, 64);
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  const auto r = core::simulate(g, s, iomodel::CacheConfig{512, 8}, 500);
  EXPECT_GE(r.sink_firings, 500);
  EXPECT_GT(r.cache.misses, 0);
}

TEST(Simulate, PartitionedBeatsNaiveWhenStateExceedsCache) {
  // 16 modules x 200 words = 3200 words total state against a 512-word
  // cache: naive reloads everything every iteration, partitioned amortizes.
  const auto g = ccs::workloads::uniform_pipeline(16, 200);
  const auto opts = small_cache();
  const auto plan = core::Planner(g, opts).plan();
  const auto naive = schedule::naive_minimal_buffer_schedule(g);

  // Partitioned runs on the augmented cache (c * M), per Theorem 5's
  // memory-augmentation guarantee; naive gets the same augmented cache.
  const iomodel::CacheConfig sim_cache{4 * opts.cache.capacity_words,
                                       opts.cache.block_words};
  const std::int64_t target = 4096;
  const auto r_part = core::simulate(g, plan.schedule, sim_cache, target);
  const auto r_naive = core::simulate(g, naive, sim_cache, target);
  EXPECT_LT(r_part.misses_per_output() * 2, r_naive.misses_per_output());
}

TEST(RunResult, PlusOperatorsAccumulate) {
  runtime::RunResult a;
  a.cache.misses = 10;
  a.firings = 5;
  a.node_misses = {1, 2};
  runtime::RunResult b;
  b.cache.misses = 7;
  b.firings = 3;
  b.node_misses = {4, 4};
  const auto m = a + b;
  EXPECT_EQ(m.cache.misses, 17);
  EXPECT_EQ(m.firings, 8);
  EXPECT_EQ(m.node_misses, (std::vector<std::int64_t>{5, 6}));

  runtime::RunResult acc;
  acc += a;
  acc += b;
  EXPECT_EQ(acc.cache.misses, 17);
  EXPECT_EQ(acc.firings, 8);
  EXPECT_EQ(acc.node_misses, (std::vector<std::int64_t>{5, 6}));
}

TEST(Planner, ExplainMentionsEveryComponentAndModule) {
  const auto g = ccs::workloads::uniform_pipeline(8, 200);
  const auto plan = core::Planner(g, small_cache()).plan();
  const auto text = core::explain(g, plan);
  EXPECT_NE(text.find("partitioner : pipeline-dp"), std::string::npos);
  EXPECT_NE(text.find("batch T"), std::string::npos);
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_NE(text.find(g.node(v).name), std::string::npos) << g.node(v).name;
  }
  for (std::int32_t c = 0; c < plan.partition.num_components; ++c) {
    EXPECT_NE(text.find("V" + std::to_string(c)), std::string::npos);
  }
}

TEST(Simulate, MeasuredCostNearPrediction) {
  const auto g = ccs::workloads::uniform_pipeline(16, 200);
  const auto opts = small_cache();
  const auto plan = core::Planner(g, opts).plan();
  const iomodel::CacheConfig sim_cache{4 * opts.cache.capacity_words,
                                       opts.cache.block_words};
  const auto r = core::simulate(g, plan.schedule, sim_cache, 2048);
  const double measured = r.misses_per_input();
  const double predicted = plan.predicted.misses_per_input;
  // Same order of magnitude: the model ignores external IO and cold misses.
  EXPECT_LT(measured, predicted * 4 + 1.0);
  EXPECT_GT(measured * 8, predicted);
}

}  // namespace
}  // namespace ccs::core
