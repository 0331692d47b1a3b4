// Every scheduler must pass the same gate: check_schedule validates the
// period against its declared buffer capacities and input/output counts.
#include <gtest/gtest.h>

#include "partition/dag_greedy.h"
#include "partition/pipeline_dp.h"
#include "schedule/dynamic.h"
#include "schedule/kohli.h"
#include "schedule/naive.h"
#include "schedule/partitioned.h"
#include "schedule/scaled.h"
#include "schedule/schedule.h"
#include "schedule/validate.h"
#include "sdf/min_buffer.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs::schedule {
namespace {

void expect_valid(const sdf::SdfGraph& g, const Schedule& s, const std::string& context) {
  const auto report = check_schedule(g, s, 2);
  EXPECT_TRUE(report.ok) << context << " [" << s.name << "]: " << report.problem;
  EXPECT_GT(s.inputs_per_period, 0) << context;
  EXPECT_GT(s.outputs_per_period, 0) << context;
}

TEST(Naive, ValidOnStreamItSuite) {
  for (const auto& app : ccs::workloads::streamit_suite()) {
    expect_valid(app.graph, naive_minimal_buffer_schedule(app.graph), app.name);
    expect_valid(app.graph, naive_single_appearance_schedule(app.graph), app.name);
  }
}

TEST(Naive, MinimalBufferUsesLessMemoryThanSas) {
  const auto g = ccs::workloads::filter_bank(8);
  const auto minbuf = naive_minimal_buffer_schedule(g);
  const auto sas = naive_single_appearance_schedule(g);
  EXPECT_LE(minbuf.total_buffer_words(), sas.total_buffer_words());
}

TEST(Scaled, ValidAndScalesWithCache) {
  const auto g = ccs::workloads::uniform_pipeline(10, 64);
  const auto small = scaled_schedule(g, 1024);
  const auto large = scaled_schedule(g, 64 * 1024);
  expect_valid(g, small, "small cache");
  expect_valid(g, large, "large cache");
  EXPECT_LE(small.inputs_per_period, large.inputs_per_period);
  EXPECT_GE(choose_scale_factor(g, 64 * 1024), choose_scale_factor(g, 1024));
}

TEST(Scaled, ScaleFactorAtLeastOne) {
  const auto g = ccs::workloads::des(16);
  EXPECT_GE(choose_scale_factor(g, 64), 1);  // cache smaller than any module
}

TEST(Kohli, ValidOnPipelines) {
  Rng rng(41);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = ccs::workloads::random_pipeline(12, 16, 128, 3, rng);
    expect_valid(g, kohli_schedule(g, 4096), "trial " + std::to_string(trial));
  }
}

TEST(Kohli, RejectsNonPipelines) {
  const auto g = ccs::workloads::fm_radio(4);
  EXPECT_THROW(kohli_schedule(g, 4096), GraphError);
}

TEST(Partitioned, BatchTHomogeneousEqualsM) {
  const auto g = ccs::workloads::uniform_pipeline(8, 64);
  PartitionedOptions opts;
  opts.m = 4096;
  EXPECT_EQ(compute_batch_t(g, opts), 4096);
  opts.t_multiplier = 2;
  EXPECT_EQ(compute_batch_t(g, opts), 8192);
}

TEST(Partitioned, BatchTRespectsDivisibility) {
  sdf::SdfGraph g;
  g.add_node("a", 8);
  g.add_node("b", 8);
  g.add_node("c", 8);
  g.add_edge(0, 1, 3, 2);  // gain of edge = 3
  g.add_edge(1, 2, 5, 7);  // gain(b) = 3/2; edge gain = 15/2
  PartitionedOptions opts;
  opts.m = 100;
  const auto t = compute_batch_t(g, opts);
  // T*3 divisible by lcm(3,2)=6 -> T even; T*15/2 divisible by lcm(5,7)=35
  // and integral -> T*15/2 = 35k -> T = 14k/3... combined smallest T is a
  // multiple of lcm conditions; just verify the defining properties:
  const sdf::GainMap gains(g);
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const Rational tokens = gains.edge_gain(e) * Rational(t);
    ASSERT_TRUE(tokens.is_integer());
    EXPECT_EQ(tokens.num() % g.edge(e).out_rate, 0);
    EXPECT_EQ(tokens.num() % g.edge(e).in_rate, 0);
    EXPECT_GE(tokens.num(), opts.m);
  }
}

TEST(Partitioned, ValidOnUniformPipeline) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 512);
  PartitionedOptions opts;
  opts.m = 512;
  const auto s = partitioned_schedule(g, dp.partition, opts, sdf::feasible_buffers(g));
  expect_valid(g, s, "uniform pipeline");
  EXPECT_EQ(s.inputs_per_period, 512);
}

TEST(Partitioned, ValidOnMultiratePipelines) {
  Rng rng(43);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = ccs::workloads::random_pipeline(10, 16, 100, 3, rng);
    const auto dp = partition::pipeline_optimal_partition(g, 3 * 256);
    PartitionedOptions opts;
    opts.m = 256;
    const auto s = partitioned_schedule(g, dp.partition, opts, sdf::feasible_buffers(g));
    expect_valid(g, s, "trial " + std::to_string(trial));
  }
}

TEST(Partitioned, ValidOnStreamItApps) {
  for (const auto& app : ccs::workloads::streamit_suite()) {
    const std::int64_t m = std::max<std::int64_t>(app.graph.max_state(), 512);
    const auto p = partition::dag_greedy_gain_partition(app.graph, 3 * m);
    PartitionedOptions opts;
    opts.m = m;
    const auto s = partitioned_schedule(app.graph, p, opts, sdf::feasible_buffers(app.graph));
    expect_valid(app.graph, s, app.name);
  }
}

TEST(Partitioned, RejectsNonWellOrderedPartition) {
  sdf::SdfGraph g;
  g.add_node("s", 8);
  g.add_node("a", 8);
  g.add_node("b", 8);
  g.add_node("t", 8);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(2, 3, 1, 1);
  const auto bad = partition::Partition::from_components(g, {{0, 3}, {1}, {2}});
  PartitionedOptions opts;
  opts.m = 64;
  EXPECT_THROW(partitioned_schedule(g, bad, opts, sdf::feasible_buffers(g)), Error);
}

TEST(Partitioned, CrossBuffersAreExactBatchTraffic) {
  const auto g = ccs::workloads::uniform_pipeline(6, 128);
  const auto p = partition::Partition::from_components(g, {{0, 1, 2}, {3, 4, 5}});
  PartitionedOptions opts;
  opts.m = 256;
  const auto s = partitioned_schedule(g, p, opts, sdf::feasible_buffers(g));
  // The one cross edge (2->3) must hold exactly T tokens (gain 1).
  EXPECT_EQ(s.buffer_caps[2], 256);
  // Internal edges keep minimal buffers (1 for homogeneous).
  EXPECT_EQ(s.buffer_caps[0], 1);
  EXPECT_EQ(s.buffer_caps[4], 1);
}

TEST(DynamicPipeline, ValidAndDrains) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 512);
  const auto s = dynamic_pipeline_schedule(g, dp.partition, 512, 2000);
  expect_valid(g, s, "dynamic uniform");
  EXPECT_GE(s.outputs_per_period, 2000);
}

TEST(DynamicPipeline, MultirateDrains) {
  Rng rng(47);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = ccs::workloads::random_pipeline(8, 16, 100, 3, rng);
    const auto dp = partition::pipeline_optimal_partition(g, 3 * 512);
    const auto s = dynamic_pipeline_schedule(g, dp.partition, 512, 500);
    expect_valid(g, s, "trial " + std::to_string(trial));
  }
}

TEST(DynamicHomogeneous, ValidOnLayeredDag) {
  Rng rng(53);
  ccs::workloads::LayeredSpec spec;
  spec.layers = 3;
  spec.width = 3;
  const auto g = layered_homogeneous_dag(spec, rng);
  const auto p = partition::dag_greedy_partition(g, 3 * 512);
  const auto s = dynamic_homogeneous_schedule(g, p, 512, 1500);
  expect_valid(g, s, "layered");
  EXPECT_GE(s.outputs_per_period, 1500);
}

TEST(DynamicHomogeneous, RejectsMultirate) {
  const auto g = ccs::workloads::filter_bank(4);
  const auto p = partition::dag_greedy_partition(g, 100000);
  EXPECT_THROW(dynamic_homogeneous_schedule(g, p, 512, 100), Error);
}

TEST(PeriodsForOutputs, CeilingDivision) {
  Schedule s;
  s.outputs_per_period = 100;
  EXPECT_EQ(periods_for_outputs(s, 1), 1);
  EXPECT_EQ(periods_for_outputs(s, 100), 1);
  EXPECT_EQ(periods_for_outputs(s, 101), 2);
  EXPECT_EQ(periods_for_outputs(s, 1000), 10);
}

TEST(Validate, CatchesLyingSchedules) {
  const auto g = ccs::workloads::uniform_pipeline(3, 8);
  Schedule s = naive_minimal_buffer_schedule(g);
  s.outputs_per_period += 1;  // lie about outputs
  EXPECT_FALSE(check_schedule(g, s).ok);
  Schedule s2 = naive_minimal_buffer_schedule(g);
  std::vector<sdf::NodeId> flat = s2.period.flatten();
  flat.pop_back();  // drop the sink firing: won't drain
  s2.period = sdf::FiringProgram(flat);
  EXPECT_FALSE(check_schedule(g, s2).ok);
  Schedule s3 = naive_minimal_buffer_schedule(g);
  s3.period.clear();
  EXPECT_FALSE(check_schedule(g, s3).ok);
}

}  // namespace
}  // namespace ccs::schedule
