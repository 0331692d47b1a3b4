#include <gtest/gtest.h>

#include "analysis/cost_model.h"
#include "analysis/lower_bound.h"
#include "partition/pipeline_dp.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace ccs::analysis {
namespace {

TEST(PipelineLowerBound, WitnessEdgesAreRealEdges) {
  const auto g = ccs::workloads::uniform_pipeline(30, 100);
  const auto bound = pipeline_lower_bound(g, 250);
  EXPECT_FALSE(bound.witness_edges.empty());
  for (const auto e : bound.witness_edges) {
    EXPECT_GE(e, 0);
    EXPECT_LT(e, g.edge_count());
  }
  EXPECT_GT(bound.bandwidth_term, Rational(0));
}

TEST(PipelineLowerBound, HomogeneousBandwidthEqualsCutCount) {
  const auto g = ccs::workloads::uniform_pipeline(30, 100);
  const auto bound = pipeline_lower_bound(g, 250);
  EXPECT_EQ(bound.bandwidth_term,
            Rational(static_cast<std::int64_t>(bound.witness_edges.size())));
}

TEST(PipelineLowerBound, MissesScaleWithTOverB) {
  const auto g = ccs::workloads::uniform_pipeline(30, 100);
  const auto bound = pipeline_lower_bound(g, 250);
  EXPECT_DOUBLE_EQ(bound.misses(1000, 8) * 2, bound.misses(2000, 8));
  EXPECT_DOUBLE_EQ(bound.misses(1000, 8), bound.misses(1000, 16) * 2);
}

TEST(PipelineLowerBound, ZeroWhenEverythingFits) {
  const auto g = ccs::workloads::uniform_pipeline(4, 10);
  const auto bound = pipeline_lower_bound(g, 1000);
  EXPECT_EQ(bound.bandwidth_term, Rational(0));
  EXPECT_TRUE(bound.witness_edges.empty());
}

TEST(PipelineLowerBound, NeverExceedsOptimalPartitionBandwidth) {
  // The LB's witness bandwidth must be <= the DP's minBW at 3M bound
  // (the LB is a lower bound, the DP an achievable upper bound)... in fact
  // the witness picks one gain-min edge per disjoint >=2M segment, which is
  // at most the bandwidth of ANY 2M-bounded partition. Check against DP(2M).
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = ccs::workloads::random_pipeline(24, 10, 150, 4, rng);
    const std::int64_t m = 200;
    const auto bound = pipeline_lower_bound(g, m);
    const auto dp = partition::pipeline_optimal_partition(g, 2 * m);
    EXPECT_LE(bound.bandwidth_term, dp.bandwidth) << "trial " << trial;
  }
}

TEST(DagMinBandwidth, PipelineUsesPolynomialPath) {
  const auto g = ccs::workloads::uniform_pipeline(40, 100);  // too big for exact
  const auto bw = dag_min_bandwidth_3m(g, 150);
  ASSERT_TRUE(bw.has_value());
  EXPECT_GT(*bw, Rational(0));
}

TEST(DagMinBandwidth, SmallDagUsesExact) {
  Rng rng(67);
  ccs::workloads::LayeredSpec spec;
  spec.layers = 3;
  spec.width = 3;
  const auto g = layered_homogeneous_dag(spec, rng);
  const auto bw = dag_min_bandwidth_3m(g, 150);
  ASSERT_TRUE(bw.has_value());
  EXPECT_GE(*bw, Rational(0));
}

TEST(DagMinBandwidth, NulloptWhenInfeasibleOrTooBig) {
  const auto g = ccs::workloads::uniform_pipeline(4, 100);
  EXPECT_EQ(dag_min_bandwidth_3m(g, 30), std::nullopt);  // module > 3M
}

TEST(BoundMisses, Formula) {
  EXPECT_DOUBLE_EQ(bound_misses(Rational(3), 800, 8), 300.0);
  EXPECT_DOUBLE_EQ(bound_misses(Rational(1, 2), 1600, 8), 100.0);
}

TEST(CostModel, BreakdownSumsAndScales) {
  const auto g = ccs::workloads::uniform_pipeline(8, 128);
  const auto p = partition::Partition::from_components(
      g, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  const auto c = predict_partitioned_cost(g, p, 1024, 8, sdf::feasible_buffers(g));
  EXPECT_DOUBLE_EQ(c.misses_per_batch, c.state_term + c.buffer_term + c.cross_term);
  EXPECT_DOUBLE_EQ(c.misses_per_input, c.misses_per_batch / 1024.0);
  // state: 2 components x 512 words / 8 = 128 misses.
  EXPECT_DOUBLE_EQ(c.state_term, 128.0);
  // cross: 1 edge, gain 1, written+read: 2*1024/8 = 256.
  EXPECT_DOUBLE_EQ(c.cross_term, 256.0);
}

TEST(CostModel, LargerTAmortizesState) {
  const auto g = ccs::workloads::uniform_pipeline(8, 128);
  const auto p = partition::Partition::from_components(
      g, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  const auto small = predict_partitioned_cost(g, p, 256, 8, sdf::feasible_buffers(g));
  const auto large = predict_partitioned_cost(g, p, 4096, 8, sdf::feasible_buffers(g));
  EXPECT_LT(large.misses_per_input, small.misses_per_input);
}

TEST(CostModel, FinerPartitionCostsMoreCross) {
  const auto g = ccs::workloads::uniform_pipeline(8, 128);
  const auto coarse = partition::Partition::from_components(
      g, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  const auto fine = partition::Partition::singletons(g);
  const auto c1 = predict_partitioned_cost(g, coarse, 1024, 8, sdf::feasible_buffers(g));
  const auto c2 = predict_partitioned_cost(g, fine, 1024, 8, sdf::feasible_buffers(g));
  EXPECT_LT(c1.cross_term, c2.cross_term);
}

}  // namespace
}  // namespace ccs::analysis
