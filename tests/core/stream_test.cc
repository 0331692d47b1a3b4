// core::Stream -- the online session API.
//
// The load-bearing test is the golden equivalence gate: a Stream granted
// the policy's own batch input allowance must reproduce the materialized
// schedule::dynamic_*_schedule + Engine::run counters bit-identically
// (RunResult operator== covers every counter including the per-node miss
// attribution), across the E11 regimes. The rest covers the session
// mechanics: arrivals, starvation, backpressure, and polling.

#include "core/stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/planner.h"
#include "iomodel/cache.h"
#include "partition/pipeline_dp.h"
#include "partition/dag_greedy.h"
#include "runtime/engine.h"
#include "schedule/dynamic.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace ccs::core {
namespace {

using iomodel::CacheConfig;
using iomodel::LruCache;

/// Batch side of the gate: materialize the dynamic schedule and run it once
/// through a fresh engine on `sim` geometry.
runtime::RunResult run_batch(const sdf::SdfGraph& g, const schedule::Schedule& s,
                             const CacheConfig& sim) {
  LruCache cache(sim);
  runtime::Engine engine(g, s.buffer_caps, cache);
  return engine.run(s.period);
}

TEST(StreamGolden, PipelineEquivalentToBatchDynamicAcrossE11Regimes) {
  const std::int64_t m = 512;
  const std::int64_t outputs = 1024;
  const CacheConfig sim{8 * m, 8};  // E11 measures on the augmented cache
  Rng rng(1111);                    // E11's generator
  for (int seed = 0; seed < 4; ++seed) {
    Rng trial = rng.fork();
    const auto g = workloads::random_pipeline(20, 64, 300, 3, trial);
    const auto dp = partition::pipeline_optimal_partition(g, 3 * m);

    const auto dyn = schedule::dynamic_pipeline_schedule(g, dp.partition, m, outputs);
    const runtime::RunResult batch = run_batch(g, dyn, sim);

    LruCache shared(sim);
    Stream stream(g, dp.partition, shared, m);
    EXPECT_EQ(stream.policy().name(), "pipeline-half-full");
    EXPECT_EQ(stream.policy().buffer_caps(), dyn.buffer_caps);

    // Unbounded arrivals = the policy's own batch allowance: the online
    // session must walk the identical firing sequence.
    stream.push(stream.policy().batch_credit(outputs));
    while (stream.outputs_produced() < outputs) {
      ASSERT_TRUE(stream.step().progressed()) << "stream idled before the target";
    }
    stream.drain();

    EXPECT_EQ(stream.stats(), batch) << "seed " << seed;
    EXPECT_EQ(stream.inputs_consumed(), dyn.inputs_per_period);
    EXPECT_EQ(stream.outputs_produced(), dyn.outputs_per_period);
  }
}

TEST(StreamGolden, HomogeneousDagEquivalentToBatchDynamic) {
  const std::int64_t m = 512;
  const std::int64_t outputs = 1500;
  const CacheConfig sim{4 * m, 8};
  Rng rng(53);
  workloads::LayeredSpec spec;
  spec.layers = 3;
  spec.width = 3;
  const auto g = workloads::layered_homogeneous_dag(spec, rng);
  const auto p = partition::dag_greedy_partition(g, 3 * m);

  const auto dyn = schedule::dynamic_homogeneous_schedule(g, p, m, outputs);
  const runtime::RunResult batch = run_batch(g, dyn, sim);

  LruCache shared(sim);
  Stream stream(g, p, shared, m);
  EXPECT_EQ(stream.policy().name(), "homogeneous-m-batch");
  stream.push(stream.policy().batch_credit(outputs));  // unlimited: saturates
  while (stream.outputs_produced() < outputs) {
    ASSERT_TRUE(stream.step().progressed());
  }
  stream.drain();
  EXPECT_EQ(stream.stats(), batch);
}

TEST(Stream, StarvesWithoutArrivalsAndResumesOnPush) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 256);
  Stream stream(g, dp.partition, CacheConfig{1024, 8});

  // Nothing pushed: the source has no credit, so the session is idle.
  EXPECT_FALSE(stream.step().progressed());
  EXPECT_EQ(stream.stats().firings, 0);

  stream.push(64);
  const runtime::RunResult burst = stream.run_until_idle();
  EXPECT_GT(burst.firings, 0);
  EXPECT_EQ(stream.inputs_consumed(), 64);  // consumed exactly what arrived
  EXPECT_EQ(stream.pending_inputs(), 0);

  // Starved again until the next arrivals.
  EXPECT_FALSE(stream.step().progressed());
  stream.push(64);
  EXPECT_GT(stream.run_until_idle().firings, 0);
  EXPECT_EQ(stream.inputs_consumed(), 128);
}

/// A single-component pipeline has no cross edge to end its burst, so an
/// unmetered source would plan without bound. One step admits at most what
/// a cross edge out of the source would hold, max(M, 2 minBuf) = M here.
TEST(Stream, OneComponentPipelineStepIsBoundedUnderUnlimitedArrivals) {
  const auto g = workloads::uniform_pipeline(3, 16);
  const std::int64_t m = 512;
  Stream stream(g, partition::Partition::whole(g), CacheConfig{m, 8});
  stream.push(std::numeric_limits<std::int64_t>::max());
  const StepResult r = stream.step();
  EXPECT_TRUE(r.progressed());
  EXPECT_EQ(stream.inputs_consumed(), m);
  EXPECT_EQ(r.run.firings, 3 * m);  // the burst flushes what it admitted
  EXPECT_EQ(stream.outputs_produced(), m);
  EXPECT_TRUE(stream.step().progressed());
  EXPECT_EQ(stream.inputs_consumed(), 2 * m);
}

/// Finite arrivals below that bound plan exactly as before: one step takes
/// them all.
TEST(Stream, OneComponentPipelineStepTakesFewerArrivalsThanTheBound) {
  const auto g = workloads::uniform_pipeline(3, 16);
  Stream stream(g, partition::Partition::whole(g), CacheConfig{512, 8});
  stream.push(100);
  EXPECT_EQ(stream.step().run.firings, 300);
  EXPECT_EQ(stream.inputs_consumed(), 100);
  EXPECT_FALSE(stream.step().progressed());
}

TEST(Stream, BackpressureClampsPushes) {
  const auto g = workloads::uniform_pipeline(6, 50);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 256);
  StreamOptions opts;
  opts.max_pending_inputs = 100;
  Stream stream(g, dp.partition, CacheConfig{1024, 8}, opts);

  EXPECT_EQ(stream.push(60), 60);
  EXPECT_FALSE(stream.backpressured());
  EXPECT_EQ(stream.push(60), 40);  // clamped at the watermark
  EXPECT_TRUE(stream.backpressured());
  EXPECT_EQ(stream.push(1), 0);
  EXPECT_EQ(stream.pending_inputs(), 100);

  // Consuming arrivals reopens the window.
  stream.run_until_idle();
  EXPECT_FALSE(stream.backpressured());
  EXPECT_GT(stream.push(100), 0);
}

TEST(Stream, DrainFlushesAllChannelsOnIterationBoundary) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 256);
  Stream stream(g, dp.partition, CacheConfig{1024, 8});
  stream.push(256);
  stream.run_until_idle();
  stream.drain();
  // A uniform pipeline has repetition counts of 1, so everything pushed can
  // always be flushed through to the sink.
  EXPECT_EQ(stream.outputs_produced(), stream.inputs_consumed());
  EXPECT_EQ(stream.outputs_produced(), 256);
}

TEST(Stream, StatsAccumulateStepDeltas) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 256);
  Stream stream(g, dp.partition, CacheConfig{1024, 8});
  stream.push(128);
  runtime::RunResult sum;
  for (StepResult r = stream.step(); r.progressed(); r = stream.step()) sum += r.run;
  sum += stream.drain();
  EXPECT_EQ(sum, stream.stats());
  EXPECT_GT(stream.steps(), 0);
}

TEST(Stream, PlannerConvenienceConstructorPlansAndServes) {
  const auto g = workloads::uniform_pipeline(12, 200);
  PlannerOptions opts;
  opts.cache.capacity_words = 1024;
  opts.cache.block_words = 8;
  const Planner planner(g, opts);
  const Plan plan = planner.plan("pipeline-dp");
  Stream stream(planner, plan);
  stream.push(512);
  stream.run_until_idle();
  stream.drain();
  EXPECT_GT(stream.outputs_produced(), 0);
  EXPECT_GT(stream.stats().cache.misses, 0);
}

TEST(Stream, RejectsUnknownPolicyListingKeys) {
  const auto g = workloads::uniform_pipeline(6, 50);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 256);
  StreamOptions opts;
  opts.policy = "bogus";
  try {
    Stream stream(g, dp.partition, CacheConfig{1024, 8}, opts);
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("valid online rules"), std::string::npos);
  }
}

TEST(Stream, AutoRejectsGeneralMultirateDags) {
  // Multirate non-pipeline: neither online rule applies.
  sdf::SdfGraph g;
  const auto a = g.add_node("a", 8);
  const auto b = g.add_node("b", 8);
  const auto c = g.add_node("c", 8);
  const auto d = g.add_node("d", 8);
  g.add_edge(a, b, 2, 1);
  g.add_edge(a, c, 1, 1);
  g.add_edge(b, d, 1, 2);
  g.add_edge(c, d, 1, 1);
  const auto p = partition::Partition::singletons(g);
  EXPECT_THROW(Stream(g, p, CacheConfig{1024, 8}), GraphError);
}

}  // namespace
}  // namespace ccs::core
