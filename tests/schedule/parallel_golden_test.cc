// Golden gate for the PR 5 parallel-simulator refactor: the simulator now
// runs over caller-provided worker caches (runtime::WorkerPool's private
// L1s in production), and every path must reproduce the pre-refactor
// implementation bit-for-bit. The constants below were captured from the
// original hand-rolled-cache implementation (PR 4 tree) for the exact E14
// configuration and the parallel_test fixtures; both entry points -- the
// span-of-caches simulator and the pool-backed core::simulate_parallel_on_pool
// (with and without a shared LLC) -- must hit them exactly.

#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.h"
#include "iomodel/cache.h"
#include "partition/dag_greedy.h"
#include "runtime/worker_pool.h"
#include "schedule/parallel.h"
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

TEST(ParallelGolden, SpanOfCachesReproducesE14) {
  const auto g = e14_graph();
  const auto p = partition::dag_greedy_partition(g, 900);
  for (const Golden& golden : e14_goldens()) {
    std::vector<iomodel::LruCache> caches;
    caches.reserve(static_cast<std::size_t>(golden.workers));
    for (std::int32_t w = 0; w < golden.workers; ++w) {
      caches.emplace_back(iomodel::CacheConfig{4096, 8});
    }
    std::vector<iomodel::CacheSim*> views;
    for (auto& cache : caches) views.push_back(&cache);
    const auto r = simulate_parallel_homogeneous(g, p, 128, views, 4096);
    expect_matches(r, golden, "span workers=" + std::to_string(golden.workers));
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
  // report shared-level traffic.
  const auto g = e14_graph();
  const auto p = partition::dag_greedy_partition(g, 900);
  for (const Golden& golden : e14_goldens()) {
    runtime::WorkerPool pool(
        runtime::WorkerPoolOptions{golden.workers, {4096, 8}, 64 * 1024});
    const auto r = core::simulate_parallel_on_pool(g, p, 128, pool, 4096);
    expect_matches(r, golden, "llc-pool workers=" + std::to_string(golden.workers));
    EXPECT_GT(r.llc.accesses, 0);
    // Every private miss probes the LLC exactly once.
    EXPECT_EQ(r.llc.accesses, r.total_misses);
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
