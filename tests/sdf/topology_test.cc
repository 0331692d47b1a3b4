#include "sdf/topology.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/plan_sweep_graphs.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

namespace ccs::sdf {
namespace {

SdfGraph diamond() {
  SdfGraph g;
  const NodeId s = g.add_node("s", 1);
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  const NodeId t = g.add_node("t", 1);
  g.add_edge(s, a, 1, 1);
  g.add_edge(s, b, 1, 1);
  g.add_edge(a, t, 1, 1);
  g.add_edge(b, t, 1, 1);
  return g;
}

TEST(Topology, SortRespectsEdges) {
  const auto g = diamond();
  const auto order = topological_sort(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = i;
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_LT(pos[static_cast<std::size_t>(g.edge(e).src)],
              pos[static_cast<std::size_t>(g.edge(e).dst)]);
  }
}

TEST(Topology, SortIsDeterministicSmallestIdFirst) {
  const auto g = diamond();
  const auto order = topological_sort(g);
  // s=0 first, then a=1 before b=2 (tie broken by id), then t=3.
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Topology, AcyclicDetection) {
  EXPECT_TRUE(is_acyclic(diamond()));
}

TEST(Topology, ReachabilityOnDiamond) {
  const auto g = diamond();
  const Reachability r(g);
  EXPECT_TRUE(r.precedes(0, 3));
  EXPECT_TRUE(r.precedes(0, 1));
  EXPECT_TRUE(r.precedes(1, 3));
  EXPECT_FALSE(r.precedes(3, 0));
  EXPECT_FALSE(r.precedes(1, 2));
  EXPECT_TRUE(r.incomparable(1, 2));
  EXPECT_FALSE(r.precedes(1, 1));
}

TEST(Topology, ReachabilityTransitiveOnLongChain) {
  const auto g = ccs::workloads::uniform_pipeline(100, 1);
  const Reachability r(g);
  EXPECT_TRUE(r.precedes(0, 99));
  EXPECT_TRUE(r.precedes(42, 43));
  EXPECT_FALSE(r.precedes(43, 42));
}

TEST(Topology, ContractFindsCrossEdges) {
  const auto g = diamond();
  // {s,a} vs {b,t}: cross edges s->b and a->t.
  const std::vector<std::int32_t> assign{0, 0, 1, 1};
  const auto cross = contract(g, assign, 2);
  ASSERT_EQ(cross.size(), 2u);
  for (const auto& ce : cross) {
    EXPECT_EQ(ce.src_comp, 0);
    EXPECT_EQ(ce.dst_comp, 1);
  }
}

TEST(Topology, ContractionAcyclicityWellOrdered) {
  const auto g = diamond();
  // Interval partition along a topological order: well ordered.
  EXPECT_TRUE(contraction_is_acyclic(g, {0, 0, 1, 1}, 2));
  // {s,t} in one component and {a}, {b} alone: contracted graph has
  // 0 -> 1 -> 0 (via s->a, a->t), a cycle.
  EXPECT_FALSE(contraction_is_acyclic(g, {0, 1, 2, 0}, 3));
}

TEST(Topology, ContractionLabelsAgreeWithKahnOnRandomMoves) {
  // The anneal's moves (to a neighbour's component or a fresh singleton) on
  // every plan-sweep graph, starting from all singletons: every answer must
  // equal a full Kahn pass, and most must come without one.
  Rng rng(4);
  std::int64_t checks = 0;
  std::int64_t searches = 0;
  for (const auto& app : test_support::plan_sweep_graphs(1)) {
    const SdfGraph& g = app.graph;
    std::vector<std::int32_t> assignment(static_cast<std::size_t>(g.node_count()));
    for (NodeId v = 0; v < g.node_count(); ++v) assignment[static_cast<std::size_t>(v)] = v;
    std::int32_t comps = g.node_count();
    ContractionLabels labels(g, assignment, comps);
    std::vector<std::int32_t> targets;
    for (std::int32_t move = 0; move < 400; ++move) {
      const auto v = static_cast<NodeId>(rng.uniform(0, g.node_count() - 1));
      const std::int32_t from = assignment[static_cast<std::size_t>(v)];
      targets.assign(1, comps);
      for (const EdgeId e : g.in_edges(v)) {
        targets.push_back(assignment[static_cast<std::size_t>(g.edge(e).src)]);
      }
      for (const EdgeId e : g.out_edges(v)) {
        targets.push_back(assignment[static_cast<std::size_t>(g.edge(e).dst)]);
      }
      const std::int32_t target = rng.pick(targets);
      if (target == from) continue;
      const bool fresh = target == comps;
      assignment[static_cast<std::size_t>(v)] = target;
      if (fresh) ++comps;
      const bool kahn = contraction_is_acyclic(g, assignment, comps);
      ASSERT_EQ(labels.accept(assignment, comps, v, fresh), kahn) << app.name << " move " << move;
      ++checks;
      if (!kahn) {
        assignment[static_cast<std::size_t>(v)] = from;
        if (fresh) --comps;
      }
    }
    searches += labels.searches();
  }
  EXPECT_GT(checks, 5000);
  EXPECT_LT(searches, checks / 2);
}

TEST(Topology, PipelineOrderWalksChain) {
  const auto g = ccs::workloads::uniform_pipeline(5, 1);
  const auto order = pipeline_order(g);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(Topology, PipelineOrderRejectsNonPipeline) {
  EXPECT_THROW(pipeline_order(diamond()), GraphError);
}

}  // namespace
}  // namespace ccs::sdf
