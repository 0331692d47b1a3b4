#include "schedule/parallel.h"

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "partition/dag_greedy.h"
#include "runtime/worker_pool.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs::schedule {
namespace {

/// The simulator on a fresh pool of `workers` flat `cache_words`-word
/// caches (B = 8, no shared LLC).
ParallelResult simulate(const sdf::SdfGraph& g, const partition::Partition& p,
                        std::int64_t m, std::int64_t cache_words, std::int32_t workers,
                        std::int64_t min_outputs) {
  runtime::WorkerPool pool(runtime::WorkerPoolOptions{workers, {cache_words, 8}, 0});
  return core::simulate_parallel_on_pool(g, p, m, pool, min_outputs);
}

workloads::LayeredSpec wide_spec() {
  workloads::LayeredSpec spec;
  spec.layers = 4;
  spec.width = 4;
  spec.state_lo = 100;
  spec.state_hi = 200;
  return spec;
}

TEST(Parallel, SingleWorkerCompletesTarget) {
  Rng rng(1);
  const auto g = workloads::layered_homogeneous_dag(wide_spec(), rng);
  const auto p = partition::dag_greedy_partition(g, 600);
  const auto r = simulate(g, p, 64, 4096, 1, 512);
  EXPECT_GE(r.outputs, 512);
  EXPECT_GT(r.total_misses, 0);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.workers, 1);
  EXPECT_EQ(r.worker_busy.size(), 1u);
  // One worker is the critical path; busy time may exceed the recorded
  // makespan by at most the final in-flight batch.
  EXPECT_GE(r.worker_busy[0], r.makespan);
}

TEST(Parallel, MoreWorkersShrinkMakespan) {
  Rng rng(2);
  const auto g = workloads::layered_homogeneous_dag(wide_spec(), rng);
  const auto p = partition::dag_greedy_partition(g, 400);  // more, smaller components
  const auto r1 = simulate(g, p, 64, 4096, 1, 1024);
  const auto r4 = simulate(g, p, 64, 4096, 4, 1024);
  EXPECT_LT(r4.makespan, r1.makespan);
}

TEST(Parallel, TotalMissesNearUniprocessor) {
  // The paper (Section 7): miss count is a uniprocessor notion; parallelism
  // should cost at most extra cold loads per worker. Allow 3x slack.
  Rng rng(3);
  const auto g = workloads::layered_homogeneous_dag(wide_spec(), rng);
  const auto p = partition::dag_greedy_partition(g, 600);
  const auto r1 = simulate(g, p, 64, 4096, 1, 1024);
  const auto r4 = simulate(g, p, 64, 4096, 4, 1024);
  EXPECT_LT(static_cast<double>(r4.total_misses),
            3.0 * static_cast<double>(r1.total_misses) + 1000.0);
}

TEST(Parallel, WorkerAccountingConsistent) {
  Rng rng(4);
  const auto g = workloads::layered_homogeneous_dag(wide_spec(), rng);
  const auto p = partition::dag_greedy_partition(g, 600);
  const auto r = simulate(g, p, 64, 4096, 3, 512);
  std::int64_t busy = 0;
  std::int64_t misses = 0;
  std::int64_t batches = 0;
  for (std::size_t w = 0; w < 3; ++w) {
    busy += r.worker_busy[w];
    misses += r.worker_misses[w];
    batches += r.worker_batches[w];
  }
  EXPECT_EQ(busy, r.total_firings);
  EXPECT_EQ(misses, r.total_misses);
  EXPECT_GT(batches, 0);
  EXPECT_GE(r.imbalance(), 1.0);
}

TEST(Parallel, RejectsMultirateGraphs) {
  const auto g = workloads::filter_bank(4);
  const auto p = partition::dag_greedy_partition(g, 100000);
  EXPECT_THROW(simulate(g, p, 64, 4096, 2, 100), Error);
}

TEST(Parallel, RejectsNonWellOrderedPartition) {
  sdf::SdfGraph g;
  g.add_node("s", 8);
  g.add_node("a", 8);
  g.add_node("b", 8);
  g.add_node("t", 8);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(2, 3, 1, 1);
  const auto bad = partition::Partition::from_components(g, {{0, 3}, {1}, {2}});
  EXPECT_THROW(simulate(g, bad, 16, 1024, 2, 64), Error);
}

TEST(Parallel, PipelineGetsOnlyPipelineParallelism) {
  // A segmented pipeline offers *pipeline* parallelism (component i on
  // batch n while component i+2 works batch n-1) but adjacent components
  // alternate on their shared buffer, so speedup is bounded by the number
  // of components and can never exceed worker count.
  const auto g = workloads::uniform_pipeline(12, 100);
  const auto p = partition::dag_greedy_partition(g, 400);  // 3 segments
  const auto r1 = simulate(g, p, 64, 4096, 1, 512);
  const auto r4 = simulate(g, p, 64, 4096, 4, 512);
  EXPECT_LE(r4.makespan, r1.makespan);
  EXPECT_GE(static_cast<double>(r4.makespan),
            static_cast<double>(r1.makespan) / 4.0);
}

}  // namespace
}  // namespace ccs::schedule
