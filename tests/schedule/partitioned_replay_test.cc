// Differential test for TokenSim::sweep, the one fire-until-stuck loop, and
// its sweep-cycle replay. The per-sweep generator it replaced -- every sweep
// of every component fires for real -- is kept below as the reference. For
// each graph, partition and batch size, the library (library_share: the
// sweep as partitioned_schedule() runs it) and the reference run side by
// side on two TokenSims, component by component, and must agree on the
// firings appended and, on every edge, on tokens and peak(); the full
// partitioned_schedule() must then equal the reference's period,
// buffer_caps, inputs_per_period and outputs_per_period.
//
// The grid is the plan-sweep graph set (every StreamIt graph and every
// seeded family) x every applicable registry partitioner x M in {256, 512,
// 1024, 2048} x t_multiplier in {1, 2, 3}. Hand-built cases add the shapes
// where a replay must stop early or where a component has no internal edge.
// The SweepShapes cases hold the other callers' limits against a plain
// reference sweep: a limited source with every other module unbounded (the
// pipeline drains), a source that may not fire (the M-batch drain), a step
// cap (kohli), and a middle segment bounded only by its cross edges (the
// pipeline policy's plan_component).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../support/plan_sweep_graphs.h"
#include "partition/partition.h"
#include "partition/registry.h"
#include "schedule/kohli.h"
#include "schedule/partitioned.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "sdf/repetition.h"
#include "sdf/token_sim.h"
#include "sdf/topology.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccs::schedule {
namespace {

using partition::Partition;
using sdf::kUnbounded;
using sdf::NodeId;
using sdf::SdfGraph;
using sdf::TokenSim;

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

/// partitioned_schedule()'s low level for one component: the library sweep
/// limited to the targets, then the same deadlock check.
void library_share(TokenSim& sim, std::span<const NodeId> order,
                   std::span<const std::int64_t> target, sdf::FiringProgram& period) {
  sim.sweep(order, target, kUnbounded, period);
  for (const NodeId v : order) {
    if (sim.fired(v) < target[static_cast<std::size_t>(v)]) {
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
  sdf::FiringProgram lib_period;
  std::vector<NodeId> ref_period;
  std::string ref_error;
  for (std::size_t c = 0; c < s.orders.size() && ref_error.empty(); ++c) {
    try {
      reference_share(ref, s.orders[c], s.target, ref_period);
    } catch (const Error& e) {
      ref_error = e.what();
    }
    if (!ref_error.empty()) {
      EXPECT_THROW(library_share(lib, s.orders[c], s.target, lib_period), Error);
      break;
    }
    library_share(lib, s.orders[c], s.target, lib_period);
    EXPECT_EQ(lib_period.flatten(), ref_period) << "component " << c;
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
    EXPECT_THROW((void)partitioned_schedule(g, p, options, sdf::feasible_buffers(g)), Error);
    return 0;
  }
  const Schedule full = partitioned_schedule(g, p, options, sdf::feasible_buffers(g));
  EXPECT_EQ(full.period.flatten(), ref_period);
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
  sdf::FiringProgram lib_period;
  std::vector<NodeId> ref_period;
  std::string lib_error = "none";
  std::string ref_error = "none";
  try {
    library_share(lib, order, target, lib_period);
  } catch (const std::exception& e) {
    lib_error = e.what();
  }
  try {
    reference_share(ref, order, target, ref_period);
  } catch (const std::exception& e) {
    ref_error = e.what();
  }
  EXPECT_EQ(lib_error, ref_error);
  EXPECT_EQ(lib_period.flatten(), ref_period);
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

/// TokenSim::sweep without the replay: every sweep fires for real.
void reference_sweep(TokenSim& sim, std::span<const NodeId> order,
                     std::span<const std::int64_t> limit, std::int64_t step_cap,
                     std::vector<NodeId>& out) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const NodeId v : order) {
      const std::int64_t lim = limit[static_cast<std::size_t>(v)];
      const std::int64_t want = lim == kUnbounded ? step_cap : lim - sim.fired(v);
      if (want <= 0) continue;
      const std::int64_t batch = sim.fire_up_to(v, want);
      if (batch <= 0) continue;
      out.insert(out.end(), static_cast<std::size_t>(batch), v);
      progressed = true;
    }
  }
}

/// One sweep on each sim, the library against the reference, from equal
/// states; both must append the same firings and leave every edge and
/// every module equal. Returns the number of firings appended.
std::int64_t expect_same_sweep(TokenSim& lib, TokenSim& ref, std::span<const NodeId> order,
                               std::span<const std::int64_t> limit, std::int64_t step_cap) {
  sdf::FiringProgram lib_out;
  std::vector<NodeId> ref_out;
  const std::int64_t n = lib.sweep(order, limit, step_cap, lib_out);
  reference_sweep(ref, order, limit, step_cap, ref_out);
  EXPECT_EQ(n, lib_out.size());
  EXPECT_EQ(lib_out.flatten(), ref_out);
  const SdfGraph& g = lib.graph();
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(lib.tokens(e), ref.tokens(e)) << "edge " << e;
    EXPECT_EQ(lib.peak(e), ref.peak(e)) << "edge " << e;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(lib.fired(v), ref.fired(v));
  return n;
}

/// Two sims under `caps`, both seeded with the same random token counts.
std::pair<TokenSim, TokenSim> random_state(const SdfGraph& g,
                                           const std::vector<std::int64_t>& caps, Rng& rng) {
  std::pair<TokenSim, TokenSim> sims{TokenSim(g, caps), TokenSim(g, caps)};
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const std::int64_t n = rng.uniform(0, caps[static_cast<std::size_t>(e)]);
    sims.first.set_tokens(e, n);
    sims.second.set_tokens(e, n);
  }
  return sims;
}

/// A pipeline's capacities under the pipeline policy's sizing for `cuts`
/// (the chain edges after which a segment ends): Theta(M) on those,
/// minimal feasible buffers elsewhere.
std::vector<std::int64_t> segment_caps(const SdfGraph& g, const std::vector<NodeId>& chain,
                                       const std::vector<std::size_t>& cuts, std::int64_t m) {
  std::vector<std::int64_t> caps = sdf::feasible_buffers(g);
  for (const std::size_t i : cuts) {
    const sdf::EdgeId e = g.out_edges(chain[i]).front();
    const sdf::Edge& edge = g.edge(e);
    caps[static_cast<std::size_t>(e)] =
        std::max(m, 2 * sdf::edge_min_buffer(edge.out_rate, edge.in_rate));
  }
  return caps;
}

std::vector<workloads::NamedGraph> pipelines() {
  std::vector<workloads::NamedGraph> out;
  for (auto& app : ccs::test_support::plan_sweep_graphs(1)) {
    if (app.graph.is_pipeline()) out.push_back(std::move(app));
  }
  return out;
}

/// The pipeline policy's drain: the whole chain, the source limited to a
/// few more firings, every other module unbounded, from random states.
TEST(SweepShapes, SourceLimitedDrainsMatchThePlainSweep) {
  Rng rng(11);
  std::int64_t firings = 0;
  for (const auto& app : pipelines()) {
    SCOPED_TRACE(app.name);
    const SdfGraph& g = app.graph;
    const auto chain = sdf::topological_sort(g);
    const std::size_t n = chain.size();
    for (const std::int64_t m : {64, 1024}) {
      const auto caps = segment_caps(g, chain, {n / 3, 2 * n / 3}, m);
      for (const std::int64_t allowance : {0, 1, 7, 300}) {
        auto [lib, ref] = random_state(g, caps, rng);
        std::vector<std::int64_t> limit(static_cast<std::size_t>(g.node_count()), kUnbounded);
        limit[static_cast<std::size_t>(chain.front())] = allowance;
        firings += expect_same_sweep(lib, ref, chain, limit, kUnbounded);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(firings, 10'000);
}

/// The M-batch policy's drain: one sweep per component of a homogeneous
/// dag, the source held at its firing count, repeated until no component
/// moves, from random states.
TEST(SweepShapes, SourceExcludedComponentDrainsMatchThePlainSweep) {
  Rng rng(12);
  const auto& registry = partition::Registry::global();
  std::int64_t firings = 0;
  std::int64_t cases = 0;
  for (const auto& app : ccs::test_support::plan_sweep_graphs(1)) {
    const SdfGraph& g = app.graph;
    if (!g.is_homogeneous()) continue;
    for (const std::int64_t m : {256, 1024}) {
      partition::StrategyContext ctx;
      ctx.cache_words = m;
      ctx.state_bound = 3 * m;
      Partition p;
      try {
        p = partition::renumber_topological(g, registry.build("dag-greedy", g, ctx));
      } catch (const Error&) {
        continue;
      }
      SCOPED_TRACE(app.name + "@" + std::to_string(m));
      std::vector<std::int64_t> caps(static_cast<std::size_t>(g.edge_count()), 1);
      for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
        if (p.comp(g.edge(e).src) != p.comp(g.edge(e).dst)) {
          caps[static_cast<std::size_t>(e)] = m;
        }
      }
      const auto comps = p.components();
      auto [lib, ref] = random_state(g, caps, rng);
      std::vector<std::int64_t> limit(static_cast<std::size_t>(g.node_count()), kUnbounded);
      limit[static_cast<std::size_t>(g.sources().front())] = 0;
      bool moved = true;
      while (moved) {
        moved = false;
        for (const auto& members : comps) {
          std::vector<NodeId> order;
          for (const NodeId v : sdf::topological_sort(g)) {
            if (p.comp(v) == p.comp(members.front())) order.push_back(v);
          }
          const std::int64_t n = expect_same_sweep(lib, ref, order, limit, kUnbounded);
          if (HasFailure()) return;
          moved |= n > 0;
          firings += n;
        }
      }
      ++cases;
    }
  }
  EXPECT_GT(cases, 4);
  EXPECT_GT(firings, 1'000);
}

/// Kohli's sweep: the whole chain, the source limited to its fill target,
/// every other module capped per step -- at sum(q), as kohli_schedule()
/// runs it, and at caps small enough to bind on every step.
TEST(SweepShapes, StepCapMatchesThePlainSweep) {
  std::int64_t firings = 0;
  for (const auto& app : pipelines()) {
    const SdfGraph& g = app.graph;
    const auto chain = sdf::pipeline_order(g);
    const sdf::RepetitionVector reps(g);
    for (const std::int64_t m : {256, 1024, 4096, 65536}) {
      SCOPED_TRACE(app.name + "@" + std::to_string(m));
      // kohli_schedule()'s sizing, restated.
      const std::int64_t share = std::max<std::int64_t>(m / (2 * g.edge_count()), 1);
      std::vector<std::int64_t> caps;
      for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
        const sdf::Edge& edge = g.edge(e);
        caps.push_back(std::max(share, sdf::edge_min_buffer(edge.out_rate, edge.in_rate)));
      }
      const std::int64_t q_src = reps.count(chain.front());
      std::vector<std::int64_t> limit(static_cast<std::size_t>(g.node_count()), kUnbounded);
      limit[static_cast<std::size_t>(chain.front())] = std::max<std::int64_t>(
          1, (share + q_src - 1) / q_src) * q_src;
      for (const std::int64_t cap : {reps.total_firings(), std::int64_t{1}, std::int64_t{3}}) {
        TokenSim lib(g, caps);
        TokenSim ref(g, caps);
        firings += expect_same_sweep(lib, ref, chain, limit, cap);
        if (HasFailure()) return;
      }
      std::vector<NodeId> ref_period;
      TokenSim ref(g, caps);
      reference_sweep(ref, chain, limit, reps.total_firings(), ref_period);
      EXPECT_EQ(kohli_schedule(g, m).period.flatten(), ref_period);
    }
  }
  EXPECT_GT(firings, 100'000);
}

/// The pipeline policy's plan_component on a middle segment: every limit
/// unbounded, so only the segment's cross edges stop it, from random states.
TEST(SweepShapes, CrossEdgeBoundedSegmentsMatchThePlainSweep) {
  Rng rng(13);
  std::int64_t firings = 0;
  for (const auto& app : pipelines()) {
    SCOPED_TRACE(app.name);
    const SdfGraph& g = app.graph;
    const auto chain = sdf::topological_sort(g);
    const std::size_t n = chain.size();
    if (n < 3) continue;
    for (const std::int64_t m : {64, 1024, 8192}) {
      const std::size_t first = n / 3;
      const std::size_t last = std::max(first + 1, 2 * n / 3);
      const auto caps = segment_caps(g, chain, {first, last}, m);
      const std::vector<NodeId> middle(chain.begin() + static_cast<std::ptrdiff_t>(first) + 1,
                                       chain.begin() + static_cast<std::ptrdiff_t>(last) + 1);
      const std::vector<std::int64_t> limit(static_cast<std::size_t>(g.node_count()),
                                            kUnbounded);
      for (std::int32_t round = 0; round < 3; ++round) {
        auto [lib, ref] = random_state(g, caps, rng);
        firings += expect_same_sweep(lib, ref, middle, limit, kUnbounded);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(firings, 10'000);
}

}  // namespace
}  // namespace ccs::schedule
