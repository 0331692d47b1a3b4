// Failure injection: every entry point must reject model violations loudly
// rather than produce silently-wrong schedules or measurements.
#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/scheduler.h"
#include "schedule/naive.h"
#include "schedule/partitioned.h"
#include "schedule/validate.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "sdf/topology.h"
#include "sdf/validate.h"
#include "util/error.h"
#include "workloads/pipelines.h"

namespace ccs {
namespace {

core::PlannerOptions planner_512() {
  core::PlannerOptions opts;
  opts.cache.capacity_words = 512;
  opts.cache.block_words = 8;
  return opts;
}

TEST(Failure, CyclicGraphRejectedEverywhere) {
  sdf::SdfGraph g;
  const auto a = g.add_node("a", 8);
  const auto b = g.add_node("b", 8);
  const auto c = g.add_node("c", 8);
  g.add_edge(a, b, 1, 1);
  g.add_edge(b, c, 1, 1);
  g.add_edge(c, a, 1, 1);
  EXPECT_THROW((void)sdf::topological_sort(g), GraphError);
  EXPECT_THROW((void)sdf::GainMap{g}, GraphError);
  EXPECT_THROW(core::Planner(g, planner_512()).plan(), GraphError);
}

TEST(Failure, RateMismatchRejectedByPlanner) {
  sdf::SdfGraph g;
  const auto s = g.add_node("s", 8);
  const auto x = g.add_node("x", 8);
  const auto y = g.add_node("y", 8);
  const auto t = g.add_node("t", 8);
  g.add_edge(s, x, 2, 1);
  g.add_edge(s, y, 1, 1);
  g.add_edge(x, t, 1, 1);
  g.add_edge(y, t, 1, 1);
  EXPECT_THROW(core::Planner(g, planner_512()).plan(), GraphError);
}

TEST(Failure, ModuleLargerThanCacheRejected) {
  const auto g = ccs::workloads::uniform_pipeline(4, 600);
  EXPECT_THROW(core::Planner(g, planner_512()).plan(), GraphError);
}

TEST(Failure, SimulateDemandsPositiveTarget) {
  const auto g = ccs::workloads::uniform_pipeline(4, 8);
  const auto s = schedule::naive_minimal_buffer_schedule(g);
  EXPECT_THROW(core::simulate(g, s, iomodel::CacheConfig{512, 8}, 0), ContractViolation);
}

TEST(Failure, ScheduleWithForeignBufferVectorRejected) {
  const auto g = ccs::workloads::uniform_pipeline(4, 8);
  auto s = schedule::naive_minimal_buffer_schedule(g);
  s.buffer_caps.pop_back();  // wrong arity
  EXPECT_FALSE(schedule::check_schedule(g, s).ok);
  // The engine treats a wrong-arity capacity vector as caller misuse.
  EXPECT_THROW(core::simulate(g, s, iomodel::CacheConfig{512, 8}, 16), ContractViolation);
}

TEST(Failure, TamperedPeriodDetected) {
  const auto g = ccs::workloads::uniform_pipeline(4, 8);
  auto s = schedule::naive_minimal_buffer_schedule(g);
  // Swap two firings so a consumer runs before its producer.
  std::vector<sdf::NodeId> flat = s.period.flatten();
  std::swap(flat.front(), flat.back());
  s.period = sdf::FiringProgram(flat);
  const auto report = schedule::check_schedule(g, s);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.problem.empty());
}

TEST(Failure, PartitionedSchedulerValidatesPartitionArity) {
  const auto g = ccs::workloads::uniform_pipeline(6, 8);
  partition::Partition p;
  p.num_components = 2;
  p.assignment = {0, 0, 1};  // wrong size
  schedule::PartitionedOptions opts;
  opts.m = 64;
  EXPECT_THROW(schedule::partitioned_schedule(g, p, opts, sdf::feasible_buffers(g)), Error);
}

TEST(Failure, ZeroAndNegativeCacheGeometriesRejected) {
  EXPECT_THROW((iomodel::CacheConfig{0, 8}).capacity_blocks(), ContractViolation);
  EXPECT_THROW(iomodel::LruCache(iomodel::CacheConfig{4, 8}), ContractViolation);
}

TEST(Failure, FeasibleBuffersRejectNonRateMatched) {
  sdf::SdfGraph g;
  const auto s = g.add_node("s", 8);
  const auto x = g.add_node("x", 8);
  const auto y = g.add_node("y", 8);
  const auto t = g.add_node("t", 8);
  g.add_edge(s, x, 3, 1);
  g.add_edge(s, y, 1, 1);
  g.add_edge(x, t, 1, 1);
  g.add_edge(y, t, 1, 1);
  EXPECT_THROW((void)sdf::feasible_buffers(g), Error);
}

TEST(Failure, EmptyGraphHasNoPlanOrStats) {
  sdf::SdfGraph g;
  EXPECT_THROW(core::Planner(g, planner_512()).plan(), GraphError);
  EXPECT_FALSE(sdf::validate(g, sdf::ValidationOptions{}).empty());
}

TEST(Failure, MultiSourceGraphsNeedExplicitOptOut) {
  sdf::SdfGraph g;
  g.add_node("s1", 8);
  g.add_node("s2", 8);
  const auto t = g.add_node("t", 8);
  g.add_edge(0, t, 1, 1);
  g.add_edge(1, t, 1, 1);
  EXPECT_THROW(core::Planner(g, planner_512()).plan(), GraphError);
}

}  // namespace
}  // namespace ccs
