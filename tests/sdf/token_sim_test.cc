#include "sdf/token_sim.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "workloads/pipelines.h"

namespace ccs::sdf {
namespace {


SdfGraph two_rate() {
  SdfGraph g;
  g.add_node("a", 1);
  g.add_node("b", 1);
  g.add_edge(0, 1, 3, 2);
  return g;
}

TEST(TokenSim, FireMovesTokens) {
  const auto g = two_rate();
  const std::int64_t caps[] = {6};
  TokenSim sim(g, caps);
  EXPECT_EQ(sim.max_batch(0, 1), 1);
  EXPECT_EQ(sim.max_batch(1, 1), 0);
  sim.fire(0);
  EXPECT_EQ(sim.tokens(0), 3);
  EXPECT_EQ(sim.max_batch(1, 1), 1);
  sim.fire(1);
  EXPECT_EQ(sim.tokens(0), 1);
}

TEST(TokenSim, MaxBatchRespectsBothEnds) {
  const auto g = two_rate();
  const std::int64_t caps[] = {6};
  TokenSim sim(g, caps);
  EXPECT_EQ(sim.max_batch(0, 100), 2);  // 6 capacity / 3 per firing
  sim.fire(0, 2);
  EXPECT_EQ(sim.max_batch(0, 100), 0);
  EXPECT_EQ(sim.max_batch(1, 100), 3);  // 6 tokens / 2 per firing
}

TEST(TokenSim, BatchFire) {
  const auto g = two_rate();
  const std::int64_t caps[] = {12};
  TokenSim sim(g, caps);
  sim.fire(0, 4);
  EXPECT_EQ(sim.tokens(0), 12);
  EXPECT_EQ(sim.fired(0), 4);
  sim.fire(1, 6);
  EXPECT_TRUE(sim.drained());
}

TEST(TokenSim, OverflowAndUnderflowThrow) {
  const auto g = two_rate();
  const std::int64_t caps[] = {3};
  TokenSim sim(g, caps);
  sim.fire(0);
  EXPECT_THROW(sim.fire(0), ScheduleError);
  sim.fire(1);
  EXPECT_THROW(sim.fire(1), ScheduleError);  // only 1 token left, needs 2
}

TEST(TokenSim, PeakTracksHighWaterMark) {
  const auto g = two_rate();
  const std::int64_t caps[] = {9};
  TokenSim sim(g, caps);
  sim.fire(0, 3);
  sim.fire(1, 4);
  EXPECT_EQ(sim.peak(0), 9);
  EXPECT_EQ(sim.tokens(0), 1);
}

TEST(TokenSim, AdvanceMovesTheNetChangeAndRaisesPeaksToTheFinalCounts) {
  const auto g = two_rate();
  const std::int64_t caps[] = {12};
  TokenSim sim(g, caps);
  sim.fire(0, 2);  // 6 tokens: the peak a block of 2 + 3 firings reaches
  sim.fire(1, 3);
  ASSERT_EQ(sim.peak(0), 6);
  // Replaying that block twice in bulk: the edge ends where it started, and
  // the applied net change (+12 then -12) never shows in the peak.
  const TokenSim::NodeFirings block[] = {{0, 4}, {1, 6}};
  sim.advance(block);
  EXPECT_EQ(sim.tokens(0), 0);
  EXPECT_EQ(sim.peak(0), 6);
  EXPECT_EQ(sim.fired(0), 6);
  EXPECT_EQ(sim.fired(1), 9);
  // A block that only fills the edge raises the peak to its final count.
  const TokenSim::NodeFirings fill[] = {{0, 3}};
  sim.advance(fill);
  EXPECT_EQ(sim.tokens(0), 9);
  EXPECT_EQ(sim.peak(0), 9);
}

TEST(TokenSim, AdvanceRejectsACountThatLeavesAnEdgeOutOfRange) {
  const auto g = two_rate();
  const std::int64_t caps[] = {6};
  TokenSim sim(g, caps);
  const TokenSim::NodeFirings overdraw[] = {{1, 1}};
  EXPECT_THROW(sim.advance(overdraw), ScheduleError);
  TokenSim fresh(g, caps);
  const TokenSim::NodeFirings overflow[] = {{0, 3}};
  EXPECT_THROW(fresh.advance(overflow), ScheduleError);
}

/// src -(1:1)-> mid -(1:1)-> sink, unit capacities.
SdfGraph unit_chain() {
  SdfGraph g;
  for (const char* name : {"src", "mid", "sink"}) g.add_node(name, 1);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  return g;
}

TEST(TokenSim, SweepFiresUntilTheLimitsStopIt) {
  const auto g = unit_chain();
  const std::int64_t caps[] = {1, 1};
  TokenSim sim(g, caps);
  const NodeId order[] = {0, 1, 2};
  const std::int64_t limit[] = {5, kUnbounded, kUnbounded};
  FiringProgram out;
  EXPECT_EQ(sim.sweep(order, limit, kUnbounded, out), 15);
  EXPECT_EQ(out.size(), 15);
  EXPECT_EQ(sim.fired(2), 5);
  EXPECT_TRUE(sim.drained());
  // A second sweep under the same limits has nothing left to fire.
  EXPECT_EQ(sim.sweep(order, limit, kUnbounded, out), 0);
  EXPECT_EQ(out.size(), 15);
}

TEST(TokenSim, SweepStepCapBindsOnlyModulesWithoutALimit) {
  const auto g = two_rate();
  const std::int64_t caps[] = {12};
  TokenSim sim(g, caps);
  const NodeId order[] = {0, 1};
  const std::int64_t limit[] = {4, kUnbounded};
  FiringProgram out;
  EXPECT_EQ(sim.sweep(order, limit, 2, out), 10);
  // The source fires all 4 at once; the consumer 2 a step.
  EXPECT_EQ(out.flatten(), (std::vector<NodeId>{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}));
  EXPECT_TRUE(sim.drained());
}

TEST(TokenSim, SweepRefusesACycleThatNothingStops) {
  const auto g = unit_chain();
  const std::int64_t caps[] = {1, 1};
  TokenSim sim(g, caps);
  const NodeId order[] = {0, 1, 2};
  const std::int64_t limit[] = {kUnbounded, kUnbounded, kUnbounded};
  FiringProgram out;
  EXPECT_THROW(sim.sweep(order, limit, kUnbounded, out), ScheduleError);
  EXPECT_LT(out.size(), 100);
}

TEST(TokenSim, TooSmallCapacityRejected) {
  const auto g = two_rate();
  const std::int64_t caps[] = {2};  // out_rate 3 cannot fit
  EXPECT_THROW(TokenSim(g, caps), ScheduleError);
}

}  // namespace
}  // namespace ccs::sdf
