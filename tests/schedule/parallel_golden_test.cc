// Golden gate for the parallel simulator, core::simulate_parallel_on_pool
// (the homogeneous-m-batch policy claiming components, one runtime::Engine
// running each batch on the claiming worker's cache). The constants below
// were captured from the original hand-rolled-cache implementation for the
// exact E14 configuration and the parallel_test fixtures; the pool-backed
// simulator, with and without a shared LLC, must hit them exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "partition/dag_greedy.h"
#include "partition/partition.h"
#include "runtime/worker_pool.h"
#include "schedule/parallel.h"
#include "sdf/graph.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace ccs::schedule {
namespace {

/// One captured run: per-worker vectors pinned along with the totals.
struct Golden {
  std::int32_t workers;
  std::int64_t makespan;
  std::int64_t total_misses;
  std::int64_t total_firings;
  std::int64_t outputs;
  std::vector<std::int64_t> worker_misses;
  std::vector<std::int64_t> worker_busy;
  std::vector<std::int64_t> worker_batches;
};

void expect_matches(const ParallelResult& r, const Golden& g, const std::string& tag) {
  EXPECT_EQ(r.workers, g.workers) << tag;
  EXPECT_EQ(r.makespan, g.makespan) << tag;
  EXPECT_EQ(r.total_misses, g.total_misses) << tag;
  EXPECT_EQ(r.total_firings, g.total_firings) << tag;
  EXPECT_EQ(r.outputs, g.outputs) << tag;
  EXPECT_EQ(r.worker_misses, g.worker_misses) << tag;
  EXPECT_EQ(r.worker_busy, g.worker_busy) << tag;
  EXPECT_EQ(r.worker_batches, g.worker_batches) << tag;
}

/// The simulator on a fresh pool of `workers` flat `cache_words`-word
/// caches (B = 8, no shared LLC).
ParallelResult simulate_on_pool(const sdf::SdfGraph& g, const partition::Partition& p,
                                std::int64_t m, std::int64_t cache_words,
                                std::int32_t workers, std::int64_t min_outputs) {
  runtime::WorkerPool pool(runtime::WorkerPoolOptions{workers, {cache_words, 8}, 0});
  return core::simulate_parallel_on_pool(g, p, m, pool, min_outputs);
}

sdf::SdfGraph e14_graph() {
  Rng rng(1414);
  workloads::LayeredSpec spec;
  spec.layers = 4;
  spec.width = 6;
  spec.state_lo = 150;
  spec.state_hi = 300;
  spec.edge_prob = 0.15;
  return workloads::layered_homogeneous_dag(spec, rng);
}

// Captured from the pre-PR implementation: E14's exact configuration
// (m=128, 4096-word workers, B=8, min_outputs=4096, dag-greedy 900).
const std::vector<Golden>& e14_goldens() {
  static const std::vector<Golden> goldens = {
      {1, 109056, 64036, 109568, 4096, {64036}, {109568}, {263}},
      {2, 62848, 68461, 109568, 4096, {36290, 32171}, {62976, 46592}, {132, 131}},
      {4,
       46592,
       34790,
       109568,
       4096,
       {13058, 10272, 11173, 287},
       {38656, 25344, 29184, 16384},
       {100, 66, 65, 32}},
      {8,
       46592,
       34790,
       109568,
       4096,
       {13058, 10272, 11173, 287, 0, 0, 0, 0},
       {38656, 25344, 29184, 16384, 0, 0, 0, 0},
       {100, 66, 65, 32, 0, 0, 0, 0}},
  };
  return goldens;
}

// The (cache_words, workers) call shape that the removed convenience
// overload offered now lives in simulate_on_pool, which the fixture goldens
// below and parallel_test.cc go through; it must still hit E14 exactly.
TEST(ParallelGolden, LegacySignatureReproducesE14) {
  const auto g = e14_graph();
  const auto p = partition::dag_greedy_partition(g, 900);
  for (const Golden& golden : e14_goldens()) {
    const auto r = simulate_on_pool(g, p, 128, 4096, golden.workers, 4096);
    expect_matches(r, golden, "legacy workers=" + std::to_string(golden.workers));
  }
}

TEST(ParallelGolden, WorkerPoolClientReproducesE14) {
  const auto g = e14_graph();
  const auto p = partition::dag_greedy_partition(g, 900);
  for (const Golden& golden : e14_goldens()) {
    runtime::WorkerPool pool(runtime::WorkerPoolOptions{golden.workers, {4096, 8}, 0});
    const auto r = core::simulate_parallel_on_pool(g, p, 128, pool, 4096);
    expect_matches(r, golden, "pool workers=" + std::to_string(golden.workers));
    EXPECT_EQ(r.llc.accesses, 0);  // no shared level configured
  }
}

TEST(ParallelGolden, SharedLlcLeavesWorkerCountersUntouched) {
  // A private level's behaviour is independent of the shared level behind
  // it (probing the LLC never mutates L1 state), so even an LLC-backed pool
  // must reproduce the flat-cache goldens exactly -- and additionally
  // report shared-level traffic, whose hit/miss split is pinned too.
  struct LlcSplit {
    std::int64_t hits, misses, writebacks;
  };
  const std::vector<LlcSplit> llc_goldens = {
      {62560, 1476, 0}, {66985, 1476, 0}, {33314, 1476, 0}, {33314, 1476, 0}};
  const auto g = e14_graph();
  const auto p = partition::dag_greedy_partition(g, 900);
  for (std::size_t i = 0; i < e14_goldens().size(); ++i) {
    const Golden& golden = e14_goldens()[i];
    const std::string tag = "llc-pool workers=" + std::to_string(golden.workers);
    runtime::WorkerPool pool(
        runtime::WorkerPoolOptions{golden.workers, {4096, 8}, 64 * 1024});
    const auto r = core::simulate_parallel_on_pool(g, p, 128, pool, 4096);
    expect_matches(r, golden, tag);
    // Every private miss probes the LLC exactly once.
    EXPECT_EQ(r.llc.accesses, r.total_misses) << tag;
    EXPECT_EQ(r.llc.hits, llc_goldens[i].hits) << tag;
    EXPECT_EQ(r.llc.misses, llc_goldens[i].misses) << tag;
    EXPECT_EQ(r.llc.writebacks, llc_goldens[i].writebacks) << tag;
  }
}

TEST(ParallelGolden, ParallelTestFixturesStayBitIdentical) {
  // The parallel_test fixtures, captured pre-refactor: a wide layered dag
  // on 1 and 3 workers, and a segmented pipeline on 4.
  {
    Rng rng(1);
    workloads::LayeredSpec spec;
    spec.layers = 4;
    spec.width = 4;
    spec.state_lo = 100;
    spec.state_hi = 200;
    const auto g = workloads::layered_homogeneous_dag(spec, rng);
    const auto p = partition::dag_greedy_partition(g, 600);
    expect_matches(simulate_on_pool(g, p, 64, 4096, 1, 512),
                   {1, 9664, 3378, 9920, 512, {3378}, {9920}, {43}}, "wide1");
    expect_matches(simulate_on_pool(g, p, 64, 4096, 3, 512),
                   {3, 4288, 970, 10176, 512, {514, 340, 116}, {4288, 3840, 2048},
                    {19, 17, 8}},
                   "wide3");
  }
  {
    const auto g = workloads::uniform_pipeline(12, 100);
    const auto p = partition::dag_greedy_partition(g, 400);
    expect_matches(simulate_on_pool(g, p, 64, 4096, 4, 512),
                   {4, 2560, 356, 6912, 512, {173, 122, 61, 0}, {2560, 2304, 2048, 0},
                    {10, 9, 8, 0}},
                   "pipe4");
  }
}

TEST(ParallelGolden, RunningComponentIsNeverClaimedTwice) {
  // A one-module source segment finishes its batch long before the large
  // segment it feeds, so the edge between them refills while that segment
  // still runs. The running segment must not be claimed again: its batch
  // has not committed, and in the middle case a second claim would
  // overflow the segment's output ring. Captured from the hand-rolled
  // simulator that kept its own running flags.
  sdf::SdfGraph g;  // s -> a0 .. a5 -> t, unit rates
  g.add_node("s", 64);
  for (int i = 0; i < 6; ++i) g.add_node("a" + std::to_string(i), 64);
  g.add_node("t", 64);
  for (sdf::NodeId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, 1, 1);
  const auto middle =
      partition::Partition::from_components(g, {{0}, {1, 2, 3, 4, 5, 6}, {7}});
  const auto tail = partition::Partition::from_components(g, {{0}, {1, 2, 3, 4, 5, 6, 7}});
  expect_matches(simulate_on_pool(g, middle, 16, 4096, 2, 128),
                 {2, 800, 130, 1152, 128, {69, 61}, {368, 784}, {18, 9}}, "middle2");
  expect_matches(simulate_on_pool(g, middle, 16, 4096, 3, 128),
                 {3, 800, 140, 1152, 128, {69, 61, 10}, {240, 784, 128}, {10, 9, 8}},
                 "middle3");
  expect_matches(simulate_on_pool(g, tail, 16, 4096, 2, 128),
                 {2, 912, 77, 1168, 128, {67, 10}, {1024, 144}, {10, 9}}, "tail2");
  expect_matches(simulate_on_pool(g, tail, 16, 4096, 3, 128),
                 {3, 912, 77, 1168, 128, {67, 10, 0}, {1024, 144, 0}, {10, 9, 0}}, "tail3");
}

// --- ParallelResult::imbalance edge cases (the zero-busy satellite fix) ---

TEST(ParallelImbalance, SingleWorkerPoolIsPerfectlyBalanced) {
  ParallelResult r;
  r.workers = 1;
  r.worker_busy = {9920};
  EXPECT_DOUBLE_EQ(r.imbalance(), 1.0);
}

TEST(ParallelImbalance, AllIdlePoolReportsZero) {
  ParallelResult r;
  r.workers = 3;
  r.worker_busy = {0, 0, 0};
  EXPECT_DOUBLE_EQ(r.imbalance(), 0.0);
}

TEST(ParallelImbalance, EmptyPoolReportsZero) {
  EXPECT_DOUBLE_EQ(ParallelResult{}.imbalance(), 0.0);
}

TEST(ParallelImbalance, PartiallyIdlePoolStaysFinite) {
  ParallelResult r;
  r.workers = 2;
  r.worker_busy = {100, 0};
  EXPECT_DOUBLE_EQ(r.imbalance(), 2.0);  // worst 100 / average 50
}

}  // namespace
}  // namespace ccs::schedule
