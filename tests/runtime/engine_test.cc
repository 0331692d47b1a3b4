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
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_EQ(engine.space(0), 4);
  engine.fire(0);
  EXPECT_EQ(engine.tokens(0), 2);
  EXPECT_EQ(engine.space(0), 2);
  engine.fire(1);
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_EQ(engine.space(0), 4);
  EXPECT_EQ(engine.fired(0), 1);
  EXPECT_EQ(engine.fired(1), 1);
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

TEST(Engine, MigrateCacheKeepsStateAndReloadsTheWorkingSet) {
  const auto g = two_stage();
  LruCache first(CacheConfig{1024, 8});
  LruCache second(CacheConfig{1024, 8});
  Engine engine(g, {4}, first);
  engine.fire(0);
  engine.take();
  engine.migrate_cache(second);
  EXPECT_EQ(engine.tokens(0), 2);  // tokens and firing counts survive
  EXPECT_EQ(engine.fired(0), 1);
  engine.fire(1);
  const RunResult r = engine.take();
  EXPECT_EQ(r.firings, 1);
  EXPECT_EQ(r.cache.accesses, second.stats().accesses);  // counted on the new cache
  EXPECT_GT(r.cache.misses, 0);  // the new cache holds none of the working set

  LruCache other_block(CacheConfig{1024, 16});
  EXPECT_THROW(engine.migrate_cache(other_block), ContractViolation);
}

TEST(InputCredit, SourceBlocksAtZeroCreditAndResumesOnPush) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.credit_input = true;
  Engine engine(g, {4}, cache, opts);

  EXPECT_EQ(engine.input_credit(), 0);
  const auto accesses_before = cache.stats().accesses;
  EXPECT_THROW(engine.fire(0), ScheduleError);
  EXPECT_EQ(engine.fired(0), 0);
  EXPECT_EQ(cache.stats().accesses, accesses_before);  // no memory traffic

  engine.push_input(2);
  EXPECT_EQ(engine.input_credit(), 2);
  engine.fire(0);
  EXPECT_EQ(engine.input_credit(), 1);  // one credit per source firing
  engine.fire(1);                       // non-source modules need no credit
  engine.fire(0);
  EXPECT_EQ(engine.input_credit(), 0);
  engine.fire(1);
  EXPECT_THROW(engine.fire(0), ScheduleError);  // credit exhausted again
  EXPECT_EQ(engine.fired(0), 2);
}

TEST(InputCredit, RunValidatesCreditUpFrontWithoutTokenMovement) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.credit_input = true;
  Engine engine(g, {4}, cache, opts);
  engine.push_input(1);
  const std::vector<NodeId> two_sources{0, 1, 0, 1};  // needs credit 2
  EXPECT_THROW(engine.run(FiringProgram(two_sources)), ScheduleError);
  EXPECT_EQ(engine.fired(0), 0);  // validation failed before any firing
  EXPECT_EQ(engine.tokens(0), 0);
  const std::vector<NodeId> affordable{0, 1};
  EXPECT_EQ(engine.run(FiringProgram(affordable)).firings, 2);
}

TEST(InputCredit, UnmeteredEngineIgnoresCreditAndRejectsPush) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);  // credit_input off
  EXPECT_EQ(engine.input_credit(), Engine::kUnlimitedCredit);
  engine.fire(0);
  EXPECT_EQ(engine.input_credit(), Engine::kUnlimitedCredit);
  EXPECT_THROW(engine.push_input(4), ContractViolation);
}

TEST(InputCredit, PushSaturatesInsteadOfOverflowing) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.credit_input = true;
  Engine engine(g, {4}, cache, opts);
  engine.push_input(Engine::kUnlimitedCredit);
  engine.push_input(Engine::kUnlimitedCredit);  // would overflow if added
  EXPECT_EQ(engine.input_credit(), Engine::kUnlimitedCredit);
  // Unlimited credit is sticky: source firings no longer consume it.
  engine.fire(0);
  EXPECT_EQ(engine.input_credit(), Engine::kUnlimitedCredit);
  EXPECT_THROW(engine.push_input(-1), ContractViolation);
}

TEST(SnapshotTake, RunEqualsFireAllPlusTake) {
  const auto g = ccs::workloads::uniform_pipeline(6, 64);
  const std::vector<std::int64_t> caps(static_cast<std::size_t>(g.edge_count()), 2);
  const std::vector<NodeId> period{0, 1, 2, 3, 4, 5};
  LruCache c1(CacheConfig{512, 8});
  LruCache c2(CacheConfig{512, 8});
  Engine via_run(g, caps, c1);
  Engine via_steps(g, caps, c2);
  const RunResult from_run = via_run.run(FiringProgram(period));
  for (const NodeId v : period) via_steps.fire(v);
  EXPECT_EQ(from_run, via_steps.take());
}

}  // namespace
}  // namespace ccs::runtime
