// Engine::run(program, repeats) against the per-firing rule it replaces:
// firing the flat sequence one fire() at a time on a twin engine. Both
// must accept and reject the same runs; a rejection must name the same
// firing in the same message and fire nothing, and an accepted run must
// leave counters (node_misses included), cache statistics and execution
// state identical to the per-firing run.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "sdf/min_buffer.h"
#include "sdf/repetition.h"
#include "sdf/token_sim.h"
#include "sdf/topology.h"
#include "../support/plan_sweep_graphs.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccs::runtime {
namespace {

using iomodel::CacheConfig;
using iomodel::LruCache;
using sdf::FiringProgram;
using sdf::NodeId;
using sdf::SdfGraph;

constexpr CacheConfig kCache{256, 8};

/// What one way of running a program left behind.
struct Outcome {
  std::optional<std::string> error;  ///< ScheduleError text, if it threw.
  RunResult result;
  EngineState state;
  iomodel::CacheStats stats;
};

/// An engine over `caps` put into `start` (when given).
Engine make_engine(const SdfGraph& g, const std::vector<std::int64_t>& caps, LruCache& cache,
                   const EngineOptions& opts, const std::optional<EngineState>& start) {
  Engine engine(g, caps, cache, opts);
  if (start) engine.restore_state(*start);
  return engine;
}

Outcome via_program(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                    const EngineOptions& opts, const std::optional<EngineState>& start,
                    const FiringProgram& program, std::int64_t repeats) {
  LruCache cache(kCache);
  Engine engine = make_engine(g, caps, cache, opts, start);
  Outcome out;
  try {
    out.result = engine.run(program, repeats);
  } catch (const ScheduleError& e) {
    out.error = e.what();
  }
  out.state = engine.save_state();
  out.stats = cache.stats();
  return out;
}

Outcome via_firings(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                    const EngineOptions& opts, const std::optional<EngineState>& start,
                    const FiringProgram& program, std::int64_t repeats) {
  LruCache cache(kCache);
  Engine engine = make_engine(g, caps, cache, opts, start);
  Outcome out;
  try {
    for (std::int64_t r = 0; r < repeats; ++r) {
      program.for_each_firing([&](NodeId v) { engine.fire(v); });
    }
  } catch (const ScheduleError& e) {
    out.error = e.what();
    return out;  // fire() fired the feasible prefix; nothing else to compare
  }
  out.result = engine.take();
  out.state = engine.save_state();
  out.stats = cache.stats();
  return out;
}

/// Runs both ways and compares; returns whether the run was accepted.
bool expect_same(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                 const EngineOptions& opts, const std::optional<EngineState>& start,
                 const FiringProgram& program, std::int64_t repeats, const std::string& where) {
  const Outcome got = via_program(g, caps, opts, start, program, repeats);
  const Outcome want = via_firings(g, caps, opts, start, program, repeats);
  EXPECT_EQ(got.error, want.error) << where;
  if (got.error) {
    // Nothing fired: the engine is where it started and the cache untouched.
    LruCache cache(kCache);
    const Engine untouched = make_engine(g, caps, cache, opts, start);
    EXPECT_EQ(got.state, untouched.save_state()) << where;
    EXPECT_EQ(got.stats.accesses, 0) << where;
    return false;
  }
  if (want.error) return false;
  EXPECT_EQ(got.result, want.result) << where;
  EXPECT_EQ(got.stats, want.stats) << where;
  EXPECT_EQ(got.state, want.state) << where;
  return true;
}

/// A random engine state under `caps`: token counts and ring heads drawn
/// per edge, and (when metered) a credit of up to `max_credit`.
EngineState random_state(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                         const EngineOptions& opts, std::int64_t max_credit, Rng& rng) {
  LruCache cache(kCache);
  Engine engine(g, caps, cache, opts);
  EngineState s = engine.save_state();
  for (std::size_t e = 0; e < caps.size(); ++e) {
    s.channel_sizes[e] = rng.uniform(0, caps[e]);
    s.channel_heads[e] = rng.uniform(0, caps[e] - 1);
  }
  if (opts.credit_input) s.input_credit = rng.uniform(0, max_credit);
  return s;
}

/// A program a sweep of the graph plans from `start`'s token counts (so its
/// blocks are real repeated cycles), with each block's repeat count then
/// nudged by -1, 0 or +1 to make later repetitions fail as often as not.
FiringProgram swept_program(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                            const EngineState& start, Rng& rng) {
  const sdf::RepetitionVector reps(g);
  sdf::TokenSim sim(g, caps);
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    sim.set_tokens(e, start.channel_sizes[static_cast<std::size_t>(e)]);
  }
  const std::int64_t scale = rng.uniform(1, 3);
  std::vector<std::int64_t> limit;
  for (NodeId v = 0; v < g.node_count(); ++v) limit.push_back(scale * reps.count(v));
  FiringProgram swept;
  sim.sweep(sdf::topological_sort(g), limit, sdf::kUnbounded, swept);
  FiringProgram out;
  for (const FiringProgram::Block& b : swept.blocks()) {
    out.append_block(swept.body(b), std::max<std::int64_t>(0, b.repeats + rng.uniform(-1, 1)));
  }
  return out;
}

/// A program of up to four blocks, each a random body of up to six
/// firings run one to five times.
FiringProgram random_program(const SdfGraph& g, Rng& rng) {
  FiringProgram out;
  const std::int64_t blocks = rng.uniform(1, 4);
  for (std::int64_t b = 0; b < blocks; ++b) {
    std::vector<NodeId> body;
    const std::int64_t len = rng.uniform(0, 6);
    for (std::int64_t i = 0; i < len; ++i) {
      body.push_back(static_cast<NodeId>(rng.uniform(0, g.node_count() - 1)));
    }
    out.append_block(body, rng.uniform(1, 5));
  }
  return out;
}

TEST(EngineProgram, AgreesWithPerFiringReplayOnRandomPrograms) {
  Rng rng(22);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (const auto& app : test_support::plan_sweep_graphs(1)) {
    const SdfGraph& g = app.graph;
    std::vector<std::int64_t> caps = sdf::feasible_buffers(g);
    for (std::int32_t trial = 0; trial < 24; ++trial) {
      std::vector<std::int64_t> trial_caps = caps;
      for (auto& c : trial_caps) c *= rng.uniform(1, 3);
      EngineOptions opts;
      opts.credit_input = trial % 2 == 1;
      const EngineState start = random_state(g, trial_caps, opts, 64, rng);
      const FiringProgram program = trial % 3 == 2 ? random_program(g, rng)
                                                   : swept_program(g, trial_caps, start, rng);
      const std::int64_t repeats = rng.uniform(0, 3);
      const std::string where = app.name + " trial " + std::to_string(trial);
      (expect_same(g, trial_caps, opts, start, program, repeats, where) ? accepted : rejected)++;
    }
  }
  // Both outcomes must be well represented for the agreement to mean much.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

SdfGraph two_stage() {
  SdfGraph g;
  const NodeId a = g.add_node("a", 8);
  const NodeId b = g.add_node("b", 8);
  g.add_edge(a, b, 1, 1);
  return g;
}

/// two_stage() with `tokens` queued on its one edge.
EngineState queued(std::int64_t tokens) {
  LruCache cache(kCache);
  Engine engine(two_stage(), {4}, cache);
  EngineState s = engine.save_state();
  s.channel_sizes[0] = tokens;
  return s;
}

FiringProgram program_of(std::vector<NodeId> body, std::int64_t repeats) {
  FiringProgram p;
  p.append_block(body, repeats);
  return p;
}

TEST(EngineProgram, FirstUnderflowAtALaterRepetition) {
  // From 2 tokens, each repetition of [b, b, a] nets -1 and dips 2 below its
  // start: repetition 0 reaches 0, repetition 1 underflows at its second b.
  const std::optional<EngineState> start = queued(2);
  EXPECT_FALSE(expect_same(two_stage(), {4}, {}, start, program_of({1, 1, 0}, 3), 1, "k=1"));
  const Outcome got = via_program(two_stage(), {4}, {}, start, program_of({1, 1, 0}, 3), 1);
  EXPECT_EQ(got.error, "firing 'b' would underflow channel 0");
}

TEST(EngineProgram, OverflowOnlyAtTheLastRepetition) {
  // [a, a, b] nets +1 and peaks 2 above its start: on a 4-token buffer
  // repetitions 0..2 fit, a fourth overflows at its second a.
  EXPECT_TRUE(expect_same(two_stage(), {4}, {}, std::nullopt, program_of({0, 0, 1}, 3), 1, "3"));
  EXPECT_FALSE(expect_same(two_stage(), {4}, {}, std::nullopt, program_of({0, 0, 1}, 4), 1, "4"));
  const Outcome got = via_program(two_stage(), {4}, {}, std::nullopt, program_of({0, 0, 1}, 4), 1);
  EXPECT_EQ(got.error, "firing 'a' would overflow channel 0");
  // The same limit reached through the outer repeat count.
  EXPECT_FALSE(
      expect_same(two_stage(), {4}, {}, std::nullopt, program_of({0, 0, 1}, 2), 2, "2x2"));
}

TEST(EngineProgram, CreditRunsOutPartwayThroughTheRepeats) {
  EngineOptions opts;
  opts.credit_input = true;
  EngineState start = queued(0);
  start.input_credit = 5;
  EXPECT_TRUE(expect_same(two_stage(), {4}, opts, start, program_of({0, 1}, 5), 1, "5"));
  EXPECT_FALSE(expect_same(two_stage(), {4}, opts, start, program_of({0, 1}, 8), 1, "8"));
  EXPECT_FALSE(expect_same(two_stage(), {4}, opts, start, program_of({0, 1}, 3), 2, "3x2"));
  const Outcome got = via_program(two_stage(), {4}, opts, start, program_of({0, 1}, 8), 1);
  EXPECT_EQ(got.error, "firing 'a' exceeds the granted external input credit");
  EXPECT_EQ(got.state.input_credit, 5);
}

TEST(EngineProgram, ZeroRepeatsAndEmptyBodiesFireNothing) {
  const SdfGraph g = two_stage();
  LruCache cache(kCache);
  Engine engine(g, {4}, cache);
  EXPECT_EQ(engine.run(program_of({0, 1}, 2), 0).firings, 0);
  const FiringProgram empty_body = program_of({}, 7);
  EXPECT_TRUE(empty_body.empty());
  EXPECT_EQ(engine.run(empty_body, 3).firings, 0);
  EXPECT_EQ(engine.run(FiringProgram(), 1).firings, 0);
  EXPECT_EQ(cache.stats().accesses, 0);
  EXPECT_EQ(engine.fired(0), 0);
}

TEST(FiringProgram, RepeatedTailsAndFlatAppendsKeepTheFlatSequence) {
  FiringProgram p;
  p.append(0, 2);
  const std::size_t mark = p.mark();
  p.append(std::vector<NodeId>{1, 2});
  p.repeat_since(mark, 2);  // [0 0] x1, [1 2] x3
  p.append(3);              // opens a new block
  p.append_block(std::vector<NodeId>{4}, 1);  // joins it
  ASSERT_EQ(p.blocks().size(), 3u);
  EXPECT_EQ(p.blocks()[1].repeats, 3);
  EXPECT_EQ(p.size(), 10);
  EXPECT_EQ(p.flatten(), (std::vector<NodeId>{0, 0, 1, 2, 1, 2, 1, 2, 3, 4}));
  FiringProgram copy;
  copy.append(p);
  EXPECT_EQ(copy, p);
  EXPECT_EQ(FiringProgram(p.flatten()).flatten(), p.flatten());
}

}  // namespace
}  // namespace ccs::runtime
