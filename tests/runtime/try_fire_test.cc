// Engine incremental mode: try_fire, input-credit accounting, and
// snapshot/take polling -- the noexcept hot path behind core::Stream.

#include <gtest/gtest.h>

#include "iomodel/cache.h"
#include "runtime/engine.h"
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

TEST(TryFire, UnderflowReturnsFalseWithoutSideEffects) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  const auto accesses_before = cache.stats().accesses;
  EXPECT_FALSE(engine.try_fire(1));  // no input tokens yet
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_EQ(engine.fired(1), 0);
  EXPECT_EQ(cache.stats().accesses, accesses_before);  // no memory traffic
}

TEST(TryFire, OverflowReturnsFalseWithoutSideEffects) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {2}, cache);
  EXPECT_TRUE(engine.try_fire(0));  // buffer now full (2/2)
  const auto accesses_before = cache.stats().accesses;
  EXPECT_FALSE(engine.try_fire(0));
  EXPECT_EQ(engine.tokens(0), 2);
  EXPECT_EQ(engine.fired(0), 1);
  EXPECT_EQ(cache.stats().accesses, accesses_before);
}

TEST(TryFire, OutOfRangeIdReturnsFalseInsteadOfThrowing) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  EXPECT_FALSE(engine.try_fire(-1));
  EXPECT_FALSE(engine.try_fire(99));
}

TEST(TryFire, MatchesFireSemanticsOnSuccess) {
  const auto g = two_stage();
  LruCache c1(CacheConfig{1024, 8});
  LruCache c2(CacheConfig{1024, 8});
  Engine via_fire(g, {4}, c1);
  Engine via_try(g, {4}, c2);
  via_fire.fire(0);
  via_fire.fire(1);
  ASSERT_TRUE(via_try.try_fire(0));
  ASSERT_TRUE(via_try.try_fire(1));
  EXPECT_EQ(via_fire.take(), via_try.take());
}

TEST(InputCredit, SourceBlocksAtZeroCreditAndResumesOnPush) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.credit_input = true;
  Engine engine(g, {4}, cache, opts);

  EXPECT_EQ(engine.input_credit(), 0);
  EXPECT_FALSE(engine.can_fire(0));
  EXPECT_FALSE(engine.try_fire(0));
  EXPECT_THROW(engine.fire(0), ScheduleError);  // fire() keeps throwing
  EXPECT_EQ(engine.fired(0), 0);

  engine.push_input(2);
  EXPECT_EQ(engine.input_credit(), 2);
  EXPECT_TRUE(engine.try_fire(0));
  EXPECT_EQ(engine.input_credit(), 1);  // one credit per source firing
  EXPECT_TRUE(engine.try_fire(1));      // non-source modules need no credit
  EXPECT_TRUE(engine.try_fire(0));
  EXPECT_EQ(engine.input_credit(), 0);
  EXPECT_TRUE(engine.try_fire(1));
  EXPECT_FALSE(engine.try_fire(0));  // credit exhausted again
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
  EXPECT_TRUE(engine.try_fire(0));
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
  EXPECT_TRUE(engine.try_fire(0));
  EXPECT_EQ(engine.input_credit(), Engine::kUnlimitedCredit);
  EXPECT_THROW(engine.push_input(-1), ContractViolation);
}

TEST(InputCredit, RebindCacheResetsCredit) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.credit_input = true;
  Engine engine(g, {4}, cache, opts);
  engine.push_input(8);
  LruCache fresh(CacheConfig{1024, 8});
  engine.rebind_cache(fresh);
  EXPECT_EQ(engine.input_credit(), 0);
  EXPECT_FALSE(engine.try_fire(0));
}

TEST(SnapshotTake, SnapshotPollsWithoutResettingTheWindow) {
  const auto g = two_stage();
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, {4}, cache);
  engine.fire(0);
  const RunResult peek1 = engine.snapshot();
  const RunResult peek2 = engine.snapshot();
  EXPECT_EQ(peek1, peek2);  // polling is idempotent
  EXPECT_EQ(peek1.firings, 1);
  engine.fire(1);
  EXPECT_EQ(engine.snapshot().firings, 2);  // window still open
  const RunResult taken = engine.take();
  EXPECT_EQ(taken.firings, 2);
  EXPECT_EQ(taken.source_firings, 1);
  EXPECT_EQ(taken.sink_firings, 1);
  // take() closed the window: nothing new to report.
  EXPECT_EQ(engine.snapshot().firings, 0);
  EXPECT_EQ(engine.snapshot().cache.accesses, 0);
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
  for (const NodeId v : period) ASSERT_TRUE(via_steps.try_fire(v));
  EXPECT_EQ(from_run, via_steps.take());
}

}  // namespace
}  // namespace ccs::runtime
