// Differential test for run_component_share(), the low level of the
// partitioned scheduler. The per-sweep generator it replaced -- every sweep
// of every component fires for real -- is kept below as the reference. For
// each graph, partition and batch size, the library and the reference run
// side by side on two TokenSims, component by component, and must agree on
// the firings appended and, on every edge, on tokens and peak(); the full
// partitioned_schedule() must then equal the reference's period,
// buffer_caps, inputs_per_period and outputs_per_period.
//
// The grid is the plan-sweep graph set (every StreamIt graph and every
// seeded family) x every applicable registry partitioner x M in {256, 512,
// 1024, 2048} x t_multiplier in {1, 2, 3}. Hand-built cases add the shapes
// where a replay must stop early or where a component has no internal edge.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "../support/plan_sweep_graphs.h"
#include "partition/partition.h"
#include "partition/registry.h"
#include "schedule/partitioned.h"
#include "schedule/token_sim.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "sdf/topology.h"
#include "util/error.h"

namespace ccs::schedule {
namespace {

using partition::Partition;
using sdf::NodeId;
using sdf::SdfGraph;

/// The generator before sweep-cycle replay: repeated maximal sweeps over the
/// component, every one fired for real.
void reference_share(TokenSim& sim, std::span<const NodeId> order,
                     std::span<const std::int64_t> target, std::vector<NodeId>& period) {
  std::int64_t outstanding = 0;
  for (const NodeId v : order) {
    outstanding += target[static_cast<std::size_t>(v)] - sim.fired(v);
  }
  while (outstanding > 0) {
    bool progressed = false;
    for (const NodeId v : order) {
      const std::int64_t want = target[static_cast<std::size_t>(v)] - sim.fired(v);
      if (want <= 0) continue;
      const std::int64_t batch = sim.fire_up_to(v, want);
      if (batch <= 0) continue;
      period.insert(period.end(), static_cast<std::size_t>(batch), v);
      outstanding -= batch;
      progressed = true;
    }
    if (!progressed) {
      throw DeadlockError("component could not complete its batch share");
    }
  }
}

/// partitioned_schedule()'s set-up, restated: buffer caps, per-module
/// batch targets and each component's sweep order.
struct Setup {
  std::int64_t t = 0;
  std::vector<std::int64_t> caps;
  std::vector<std::int64_t> target;
  std::vector<std::vector<NodeId>> orders;
};

Setup make_setup(const SdfGraph& g, const Partition& p, const PartitionedOptions& options) {
  const Partition topo_p = partition::renumber_topological(g, p);
  const sdf::GainMap gains(g);
  Setup s;
  s.t = compute_batch_t(g, options);
  const auto internal = sdf::feasible_buffers(g);
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    s.caps.push_back(topo_p.comp(edge.src) != topo_p.comp(edge.dst)
                         ? (gains.edge_gain(e) * Rational(s.t)).num()
                         : internal[static_cast<std::size_t>(e)]);
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    s.target.push_back((gains.node_gain(v) * Rational(s.t)).num());
  }
  const auto topo = sdf::topological_sort(g);
  for (std::int32_t c = 0; c < topo_p.num_components; ++c) {
    std::vector<NodeId> order;
    for (const NodeId v : topo) {
      if (topo_p.comp(v) == c) order.push_back(v);
    }
    s.orders.push_back(std::move(order));
  }
  return s;
}

/// Runs the library and the reference side by side; returns the number of
/// firings generated (0 when both threw the same error).
std::int64_t expect_same_generation(const SdfGraph& g, const Partition& p,
                                    const PartitionedOptions& options,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  const Setup s = make_setup(g, p, options);
  TokenSim lib(g, s.caps);
  TokenSim ref(g, s.caps);
  std::vector<NodeId> lib_period;
  std::vector<NodeId> ref_period;
  std::string ref_error;
  for (std::size_t c = 0; c < s.orders.size() && ref_error.empty(); ++c) {
    try {
      reference_share(ref, s.orders[c], s.target, ref_period);
    } catch (const Error& e) {
      ref_error = e.what();
    }
    if (!ref_error.empty()) {
      EXPECT_THROW(run_component_share(lib, s.orders[c], s.target, lib_period), Error);
      break;
    }
    run_component_share(lib, s.orders[c], s.target, lib_period);
    EXPECT_EQ(lib_period, ref_period) << "component " << c;
    for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(lib.tokens(e), ref.tokens(e)) << "component " << c << " edge " << e;
      EXPECT_EQ(lib.peak(e), ref.peak(e)) << "component " << c << " edge " << e;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(lib.fired(v), ref.fired(v)) << "component " << c << " node " << v;
    }
    if (::testing::Test::HasFailure()) return 0;
  }
  if (!ref_error.empty()) {
    EXPECT_THROW((void)partitioned_schedule(g, p, options), Error);
    return 0;
  }
  const Schedule full = partitioned_schedule(g, p, options);
  EXPECT_EQ(full.period, ref_period);
  EXPECT_EQ(full.buffer_caps, s.caps);
  EXPECT_EQ(full.inputs_per_period, s.t);
  EXPECT_EQ(full.outputs_per_period, ref.fired(g.sinks().front()));
  return static_cast<std::int64_t>(ref_period.size());
}

class ReplayGrid : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ReplayGrid, EveryPartitionerAndBatchSizeMatchesThePerSweepReference) {
  const std::int64_t m = GetParam();
  const auto& registry = partition::Registry::global();
  partition::StrategyContext ctx;
  ctx.cache_words = m;
  ctx.state_bound = 3 * m;
  ctx.seed = 1;
  std::int64_t cases = 0;
  std::int64_t firings = 0;
  for (const auto& app : ccs::test_support::plan_sweep_graphs(1)) {
    std::set<std::vector<std::int32_t>> seen;
    for (const std::string& name : registry.applicable_keys(app.graph, ctx)) {
      Partition p;
      try {
        p = registry.build(name, app.graph, ctx);
      } catch (const Error&) {
        continue;  // no bounded partition at this M (a module outgrows it)
      }
      if (!seen.insert(p.assignment).second) continue;
      for (const std::int64_t mult : {1, 2, 3}) {
        PartitionedOptions options;
        options.m = m;
        options.t_multiplier = mult;
        firings += expect_same_generation(
            app.graph, p, options,
            app.name + "@" + std::to_string(m) + " " + name + " x" + std::to_string(mult));
        ++cases;
        if (HasFailure()) return;
      }
    }
  }
  // The grid must actually reach the generator: about a hundred or more
  // distinct (partition, T) cases and millions of firings per cache size.
  EXPECT_GT(cases, 90);
  EXPECT_GT(firings, 1'000'000);
}

INSTANTIATE_TEST_SUITE_P(CacheWords, ReplayGrid, ::testing::Values(256, 512, 1024, 2048));

/// src -> a -> b -> sink, all rates 1: every internal edge of a one-
/// component schedule returns to empty after each sweep, so the first
/// repeat replays everything the source still wants. Only the source's
/// `want` stops it.
TEST(ReplayCases, SourceBoundedOnlyByWant) {
  SdfGraph g;
  for (const char* name : {"src", "a", "b", "sink"}) g.add_node(name, 4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  for (const std::int64_t m : {3, 64, 1000}) {
    PartitionedOptions options;
    options.m = m;
    EXPECT_GT(expect_same_generation(g, Partition::whole(g), options, "whole"), 0);
    EXPECT_GT(expect_same_generation(g, Partition{{0, 0, 1, 1}, 2}, options, "halves"), 0);
  }
}

/// A 2:3 then 3:2 multi-rate chain inside one component: internal tokens
/// cycle with a period of several sweeps, and the last sweeps are capped
/// by `want` part-way through a block.
TEST(ReplayCases, MultiRateBlockCappedByWant) {
  SdfGraph g;
  for (const char* name : {"src", "up", "down", "sink"}) g.add_node(name, 4);
  g.add_edge(0, 1, 2, 3);
  g.add_edge(1, 2, 5, 2);
  g.add_edge(2, 3, 3, 5);
  for (const std::int64_t m : {1, 7, 50, 333}) {
    for (const std::int64_t mult : {1, 2, 3}) {
      PartitionedOptions options;
      options.m = m;
      options.t_multiplier = mult;
      EXPECT_GT(expect_same_generation(g, Partition::whole(g), options, "whole"), 0);
      EXPECT_GT(expect_same_generation(g, Partition{{0, 1, 1, 1}, 2}, options, "tail"), 0);
      EXPECT_GT(expect_same_generation(g, Partition{{0, 0, 0, 1}, 2}, options, "head"), 0);
    }
  }
}

/// Runs one share on two fresh sims after `stock` firings of node 0 (the
/// upstream producer), the library against the reference. A share that
/// cannot complete must fail the same way after the same firings.
void expect_same_share(const SdfGraph& g, std::span<const std::int64_t> caps,
                       std::int64_t stock, std::span<const NodeId> order,
                       std::span<const std::int64_t> target) {
  TokenSim lib(g, caps);
  TokenSim ref(g, caps);
  lib.fire(0, stock);
  ref.fire(0, stock);
  std::vector<NodeId> lib_period;
  std::vector<NodeId> ref_period;
  std::string lib_error = "none";
  std::string ref_error = "none";
  try {
    run_component_share(lib, order, target, lib_period);
  } catch (const std::exception& e) {
    lib_error = e.what();
  }
  try {
    reference_share(ref, order, target, ref_period);
  } catch (const std::exception& e) {
    ref_error = e.what();
  }
  EXPECT_EQ(lib_error, ref_error);
  EXPECT_EQ(lib_period, ref_period);
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(lib.tokens(e), ref.tokens(e)) << "edge " << e;
    EXPECT_EQ(lib.peak(e), ref.peak(e)) << "edge " << e;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(lib.fired(v), ref.fired(v));
}

/// The component's input is a multi-rate cross edge (3 tokens a firing).
/// Inside partitioned_schedule() a cross edge holds exactly the share's
/// traffic, so its bound never binds before the want bound does; here the
/// upstream stocks the edge short, it drains part-way through the share,
/// and the replay must stop where the edge can no longer feed a whole
/// block -- the same firings as the reference, then the same deadlock.
TEST(ReplayCases, MultiRateCrossInputDrainsMidComponent) {
  SdfGraph g;
  for (const char* name : {"src", "a", "b", "sink"}) g.add_node(name, 4);
  g.add_edge(0, 1, 1, 3);
  g.add_edge(1, 2, 2, 1);
  g.add_edge(2, 3, 1, 4);
  const std::vector<NodeId> order = {1, 2};
  const std::vector<std::int64_t> target = {0, 60, 120, 30};
  for (const std::int64_t stock : {180, 179, 100, 31, 4}) {
    SCOPED_TRACE("stock " + std::to_string(stock));
    // a -> b at its minimal buffer (2), the cross edges at full traffic,
    // or the output edge short so its space runs out first.
    expect_same_share(g, std::vector<std::int64_t>{180, 2, 120}, stock, order, target);
    expect_same_share(g, std::vector<std::int64_t>{180, 2, 77}, stock, order, target);
  }
  for (const std::int64_t m : {1, 12, 100, 257}) {
    for (const std::int64_t mult : {1, 2, 3}) {
      PartitionedOptions options;
      options.m = m;
      options.t_multiplier = mult;
      EXPECT_GT(expect_same_generation(g, Partition{{0, 1, 1, 1}, 2}, options, "a..sink"), 0);
      EXPECT_GT(expect_same_generation(g, Partition{{0, 1, 1, 2}, 3}, options, "a,b"), 0);
    }
  }
}

/// Components without an internal edge: singletons, and two parallel
/// branches of a split-join sharing one component. The snapshot of internal
/// tokens is empty, so every sweep "repeats" the one before it and only
/// the want and cross-edge bounds decide the replay.
TEST(ReplayCases, ComponentWithNoInternalEdge) {
  SdfGraph g;
  for (const char* name : {"split", "left", "right", "join"}) g.add_node(name, 4);
  g.add_edge(0, 1, 2, 1);
  g.add_edge(0, 2, 1, 3);
  g.add_edge(1, 3, 3, 2);
  g.add_edge(2, 3, 9, 1);
  for (const std::int64_t m : {1, 9, 64, 500}) {
    for (const std::int64_t mult : {1, 2, 3}) {
      PartitionedOptions options;
      options.m = m;
      options.t_multiplier = mult;
      EXPECT_GT(expect_same_generation(g, Partition::singletons(g), options, "singletons"), 0);
      EXPECT_GT(expect_same_generation(g, Partition{{0, 1, 1, 2}, 3}, options, "branches"), 0);
    }
  }
}

}  // namespace
}  // namespace ccs::schedule
