#include "runtime/engine.h"

#include <gtest/gtest.h>

#include "iomodel/cache.h"
#include "schedule/naive.h"
#include "sdf/min_buffer.h"
#include "util/error.h"
#include "workloads/pipelines.h"

namespace ccs::runtime {
namespace {

using iomodel::CacheConfig;
using iomodel::LruCache;
using sdf::FiringProgram;
using sdf::NodeId;
using sdf::SdfGraph;

SdfGraph two_stage() {
  SdfGraph g;
  const NodeId a = g.add_node("a", 16);
  const NodeId b = g.add_node("b", 16);
  g.add_edge(a, b, 2, 2);
  return g;
}

TEST(Engine, FiringMovesTokens) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  EXPECT_TRUE(engine.can_fire(0));
  EXPECT_FALSE(engine.can_fire(1));  // no input tokens yet
  engine.fire(0);
  EXPECT_EQ(engine.tokens(0), 2);
  EXPECT_TRUE(engine.can_fire(1));
  engine.fire(1);
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_TRUE(engine.drained());
}

TEST(Engine, UnderflowThrowsWithoutSideEffects) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  EXPECT_THROW(engine.fire(1), ScheduleError);
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_EQ(engine.fired(1), 0);
}

TEST(Engine, OverflowThrowsWithoutSideEffects) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {2}, cache);
  engine.fire(0);  // buffer now full (2/2)
  EXPECT_THROW(engine.fire(0), ScheduleError);
  EXPECT_EQ(engine.tokens(0), 2);
  EXPECT_EQ(engine.fired(0), 1);
}

TEST(Engine, StateScanCostsStateOverBlockMisses) {
  SdfGraph g;
  const NodeId a = g.add_node("a", 64);
  const NodeId b = g.add_node("b", 8);
  g.add_edge(a, b, 1, 1);
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.model_external_io = false;
  Engine engine(g, {1}, cache, opts);
  engine.fire(0);
  // 64-word state = 8 blocks + 1 block of output buffer writes.
  EXPECT_EQ(cache.stats().misses, 8 + 1);
}

TEST(Engine, RepeatedFiringReusesCachedState) {
  SdfGraph g;
  const NodeId a = g.add_node("a", 64);
  const NodeId b = g.add_node("b", 8);
  g.add_edge(a, b, 1, 1);
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.model_external_io = false;
  Engine engine(g, {4}, cache, opts);
  engine.fire(0);
  const auto first = cache.stats().misses;
  engine.fire(0);  // everything resident
  EXPECT_EQ(cache.stats().misses, first);
}

TEST(Engine, ExternalIoCostsOneMissPerBlockOfFirings)
{
  SdfGraph g;
  const NodeId a = g.add_node("a", 8);
  const NodeId b = g.add_node("b", 8);
  g.add_edge(a, b, 1, 1);
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {1}, cache);  // external IO on by default
  std::vector<NodeId> seq;
  for (int i = 0; i < 16; ++i) {
    seq.push_back(0);
    seq.push_back(1);
  }
  const RunResult r = engine.run(FiringProgram(seq));
  // Source reads 16 external words (2 blocks), sink writes 16 (2 blocks);
  // states (2 blocks) + channel ring (1 block) are cold-missed once.
  EXPECT_EQ(r.cache.misses, 2 + 2 + 2 + 1);
  EXPECT_EQ(r.source_firings, 16);
  EXPECT_EQ(r.sink_firings, 16);
}

TEST(Engine, RunReturnsDeltasBetweenCalls) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  const std::vector<NodeId> seq{0, 1};
  const RunResult r1 = engine.run(FiringProgram(seq));
  const RunResult r2 = engine.run(FiringProgram(seq));
  EXPECT_EQ(r1.firings, 2);
  EXPECT_EQ(r2.firings, 2);
  // Second run hits cache: strictly fewer misses.
  EXPECT_LT(r2.cache.misses, r1.cache.misses);
}

/// run(firings, repeats) against `repeats` separate run(firings) calls on
/// a twin engine: same RunResult (per-node attribution included) and same
/// cache counters.
void expect_repeat_matches_summed_runs(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                                       const std::vector<NodeId>& seq, std::int64_t repeats,
                                       EngineOptions opts = {}, std::int64_t credit = 0) {
  LruCache cache_once(CacheConfig{256, 8});
  LruCache cache_summed(CacheConfig{256, 8});
  Engine once(g, caps, cache_once, opts);
  Engine summed(g, caps, cache_summed, opts);
  if (opts.credit_input) {
    once.push_input(credit);
    summed.push_input(credit);
  }
  const RunResult got = once.run(FiringProgram(seq), repeats);
  RunResult want;
  for (std::int64_t r = 0; r < repeats; ++r) want += summed.run(FiringProgram(seq));
  EXPECT_EQ(got, want);
  EXPECT_EQ(cache_once.stats(), cache_summed.stats());
  EXPECT_EQ(once.save_state(), summed.save_state());
}

TEST(Engine, RepeatedRunEqualsSummedRunsOnABalancedPeriod) {
  const auto g = ccs::workloads::uniform_pipeline(4, 40);
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  expect_repeat_matches_summed_runs(g, s.buffer_caps, s.period.flatten(), 7);
}

TEST(Engine, RepeatedRunEqualsSummedRunsOnAnUnbalancedSequence) {
  // Each repetition leaves two more tokens queued (peaking four above its
  // start): feasible three times on an eight-token buffer, and every
  // repetition is validated on its own.
  const auto g = two_stage();
  expect_repeat_matches_summed_runs(g, {8}, {0, 0, 1}, 3);
}

TEST(Engine, RepeatedRunEqualsSummedRunsUnderCreditInput) {
  EngineOptions opts;
  opts.credit_input = true;
  expect_repeat_matches_summed_runs(two_stage(), {4}, {0, 1}, 5, opts, /*credit=*/5);
}

TEST(Engine, RepeatedRunRevalidatesEachUnbalancedRepetition) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  // The first two repetitions fill the buffer; the third would overflow, so
  // the run throws before any repetition fires.
  EXPECT_THROW(engine.run(FiringProgram(std::vector<NodeId>{0}), 3), ScheduleError);
  EXPECT_EQ(engine.fired(0), 0);
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_EQ(cache.stats().accesses, 0);
}

TEST(Engine, RepeatedRunSpendsCreditPerRepetition) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.credit_input = true;
  Engine engine(g, {4}, cache, opts);
  engine.push_input(2);
  // Balanced, but metered: the third repetition has no credit left, so the
  // run throws before any repetition fires or spends credit.
  EXPECT_THROW(engine.run(FiringProgram(std::vector<NodeId>{0, 1}), 3), ScheduleError);
  EXPECT_EQ(engine.fired(0), 0);
  EXPECT_EQ(engine.input_credit(), 2);
  EXPECT_EQ(cache.stats().accesses, 0);
}

TEST(Engine, RepeatedRunOfAnInfeasibleSequenceThrowsBeforeAnyTraffic) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  EXPECT_THROW(engine.run(FiringProgram(std::vector<NodeId>{0, 1, 1}), 4), ScheduleError);
  EXPECT_EQ(cache.stats().accesses, 0);
  EXPECT_EQ(engine.fired(0), 0);
  EXPECT_EQ(engine.tokens(0), 0);
}

TEST(Engine, ZeroRepeatsReturnsAnEmptyTake) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  const RunResult r = engine.run(FiringProgram(std::vector<NodeId>{0, 1}), 0);
  EXPECT_EQ(r.firings, 0);
  EXPECT_EQ(r.cache.accesses, 0);
  EXPECT_EQ(cache.stats().accesses, 0);
  EXPECT_EQ(engine.fired(0), 0);
  EXPECT_THROW(engine.run(FiringProgram(std::vector<NodeId>{0, 1}), -1), ContractViolation);
}

TEST(Engine, PerNodeAttributionSumsToTotal) {
  const auto g = ccs::workloads::uniform_pipeline(4, 32);
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, sdf::feasible_buffers(g), cache);
  std::vector<NodeId> seq;
  for (int iter = 0; iter < 3; ++iter) {
    for (NodeId v = 0; v < 4; ++v) seq.push_back(v);
  }
  const RunResult r = engine.run(FiringProgram(seq));
  std::int64_t attributed = 0;
  for (const auto m : r.node_misses) attributed += m;
  EXPECT_EQ(attributed, r.cache.misses);
}

TEST(Engine, MissesPerInputAndOutput) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  const std::vector<NodeId> seq{0, 1};
  const RunResult r = engine.run(FiringProgram(seq));
  EXPECT_GT(r.misses_per_input(), 0.0);
  EXPECT_GT(r.misses_per_output(), 0.0);
  EXPECT_DOUBLE_EQ(r.misses_per_input(), static_cast<double>(r.cache.misses));
}

TEST(Engine, UndersizedBufferRejectedAtConstruction) {
  const auto g = two_stage();  // rates (2,2) need capacity >= 2
  LruCache cache(CacheConfig{1024, 8});
  EXPECT_THROW(Engine(g, {1}, cache), ScheduleError);
}

TEST(Engine, ResetTokensDrainsWithoutTraffic) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  engine.fire(0);
  const auto accesses = cache.stats().accesses;
  engine.reset_tokens();
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.fired(0), 0);
  EXPECT_EQ(cache.stats().accesses, accesses);
}

TEST(Engine, StateFootprintReported) {
  const auto g = ccs::workloads::uniform_pipeline(5, 100);
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, sdf::feasible_buffers(g), cache);
  EXPECT_EQ(engine.state_footprint(), 500);
}

TEST(Engine, RebindCacheReproducesAFreshEngineExactly) {
  // The pool-reuse hook: after rebind_cache to a cold cache, a reused
  // engine must be indistinguishable counter-for-counter from a newly
  // constructed one. The pipeline's state (500 words) overflows the
  // 256-word cache so the sequence has nontrivial miss structure.
  const auto g = ccs::workloads::uniform_pipeline(5, 100);
  const auto caps = sdf::feasible_buffers(g);
  std::vector<NodeId> seq;
  for (int round = 0; round < 4; ++round) {
    for (NodeId v = 0; v < g.node_count(); ++v) seq.push_back(v);
  }

  LruCache first_cache(CacheConfig{256, 8});
  Engine engine(g, caps, first_cache);
  const RunResult fresh = engine.run(FiringProgram(seq));
  EXPECT_GT(fresh.cache.misses, 0);

  LruCache second_cache(CacheConfig{256, 8});
  engine.rebind_cache(second_cache);
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.fired(0), 0);
  const RunResult reused = engine.run(FiringProgram(seq));

  // Named fields first for readable failures, then the exhaustive
  // defaulted operator== (covers counters added later too).
  EXPECT_EQ(reused.cache.misses, fresh.cache.misses);
  EXPECT_EQ(reused.cache.writebacks, fresh.cache.writebacks);
  EXPECT_EQ(reused.state_misses, fresh.state_misses);
  EXPECT_EQ(reused.node_misses, fresh.node_misses);
  EXPECT_TRUE(reused == fresh);
}

TEST(Engine, RebindCacheRequiresMatchingBlockSize) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  LruCache other_block(CacheConfig{1024, 16});
  EXPECT_THROW(engine.rebind_cache(other_block), ContractViolation);
}

}  // namespace
}  // namespace ccs::runtime
