// Microbenchmark: schedule construction throughput (google-benchmark).
//
// Scheduling happens offline, but period generation is linear in the batch
// size T and can dominate experiment setup; these benches keep it honest.

#include <benchmark/benchmark.h>

#include "partition/pipeline_dp.h"
#include "schedule/dynamic.h"
#include "schedule/naive.h"
#include "schedule/partitioned.h"
#include "schedule/scaled.h"
#include "sdf/min_buffer.h"
#include "workloads/pipelines.h"

namespace {

using namespace ccs;

void BM_NaiveSchedule(benchmark::State& state) {
  const auto g = workloads::uniform_pipeline(static_cast<std::int32_t>(state.range(0)), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule::naive_minimal_buffer_schedule(g));
  }
}
BENCHMARK(BM_NaiveSchedule)->Arg(16)->Arg(64);

void BM_ScaledSchedule(benchmark::State& state) {
  const auto g = workloads::uniform_pipeline(static_cast<std::int32_t>(state.range(0)), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule::scaled_schedule(g, 4096));
  }
}
BENCHMARK(BM_ScaledSchedule)->Arg(16)->Arg(64);

void BM_PartitionedSchedule(benchmark::State& state) {
  const auto g = workloads::uniform_pipeline(24, 256);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * state.range(0));
  schedule::PartitionedOptions opts;
  opts.m = state.range(0);
  std::int64_t firings = 0;
  for (auto _ : state) {
    const auto s = schedule::partitioned_schedule(g, dp.partition, opts, sdf::feasible_buffers(g));
    firings += s.period.size();
    benchmark::DoNotOptimize(s.period.blocks().data());
  }
  state.SetItemsProcessed(firings);  // generated firings
  state.SetLabel("T=" + std::to_string(schedule::compute_batch_t(g, opts)));
}
BENCHMARK(BM_PartitionedSchedule)->Arg(512)->Arg(2048);

void BM_DynamicPipelineSchedule(benchmark::State& state) {
  const auto g = workloads::uniform_pipeline(24, 256);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule::dynamic_pipeline_schedule(g, dp.partition, 512, state.range(0)));
  }
}
BENCHMARK(BM_DynamicPipelineSchedule)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
