// Microbenchmark: partitioner runtime scaling (google-benchmark).
//
// The paper argues partitioning happens at compile time, so even the
// exponential exact solver is acceptable on small graphs. These benches
// put numbers on that: the pipeline DP is quadratic, the greedy linear-ish,
// refinement a few sweeps, exact exponential in width. BM_PlannerCompare
// times the whole experiment-loop step on top of them: every applicable
// partitioner, each distinct partition's schedule, and the lower bound.

#include <benchmark/benchmark.h>

#include "core/planner.h"
#include "partition/dag_exact.h"
#include "partition/dag_greedy.h"
#include "partition/dag_refine.h"
#include "partition/pipeline_dp.h"
#include "partition/pipeline_greedy.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace {

using namespace ccs;

void BM_PipelineDp(benchmark::State& state) {
  Rng rng(1);
  const auto g = workloads::random_pipeline(static_cast<std::int32_t>(state.range(0)), 10,
                                            200, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::pipeline_optimal_partition(g, 600));
  }
}
BENCHMARK(BM_PipelineDp)->Arg(32)->Arg(128)->Arg(512);

void BM_PipelineGreedy(benchmark::State& state) {
  Rng rng(2);
  const auto g = workloads::random_pipeline(static_cast<std::int32_t>(state.range(0)), 10,
                                            200, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::pipeline_greedy_partition(g, 200));
  }
}
BENCHMARK(BM_PipelineGreedy)->Arg(32)->Arg(128)->Arg(512);

void BM_DagGreedyGain(benchmark::State& state) {
  Rng rng(3);
  workloads::SeriesParallelSpec spec;
  spec.target_nodes = static_cast<std::int32_t>(state.range(0));
  const auto g = workloads::series_parallel_dag(spec, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::dag_greedy_gain_partition(g, 600));
  }
}
BENCHMARK(BM_DagGreedyGain)->Arg(32)->Arg(128);

void BM_DagRefine(benchmark::State& state) {
  Rng rng(4);
  workloads::SeriesParallelSpec spec;
  spec.target_nodes = static_cast<std::int32_t>(state.range(0));
  const auto g = workloads::series_parallel_dag(spec, rng);
  const auto start = partition::dag_greedy_partition(g, 600);
  partition::RefineOptions opts;
  opts.state_bound = 600;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::refine_partition(g, start, opts));
  }
}
BENCHMARK(BM_DagRefine)->Arg(32)->Arg(128);

void BM_DagExact(benchmark::State& state) {
  Rng rng(5);
  workloads::LayeredSpec spec;
  spec.layers = static_cast<std::int32_t>(state.range(0));
  spec.width = 3;
  const auto g = workloads::layered_homogeneous_dag(spec, rng);
  partition::ExactOptions opts;
  opts.state_bound = 900;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::dag_exact_partition(g, opts));
  }
}
BENCHMARK(BM_DagExact)->Arg(2)->Arg(3)->Arg(4);

/// Planner::compare() on FM radio (range 0 = 0) or DES (= 1) at M =
/// range(1) words; reports compared rows per second (also as items).
void BM_PlannerCompare(benchmark::State& state) {
  core::PlannerOptions opts;
  opts.cache = {state.range(1), 8};
  const core::Planner planner(state.range(0) == 0 ? workloads::fm_radio() : workloads::des(),
                              opts);
  std::int64_t rows = 0;
  for (auto _ : state) {
    const auto compared = planner.compare();
    rows += static_cast<std::int64_t>(compared.size());
    benchmark::DoNotOptimize(compared.data());
  }
  state.SetItemsProcessed(rows);
  state.SetLabel(state.range(0) == 0 ? "FMRadio" : "DES");
  state.counters["rows_per_s"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlannerCompare)->ArgsProduct({{0, 1}, {512, 2048}})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
