// Connects the executing engine to the offline-optimal yardstick: record a
// real schedule's block trace, then check the Sleator-Tarjan-style relation
// between the engine's LRU misses and Belady OPT on the same trace.
#include <gtest/gtest.h>

#include "core/planner.h"
#include "iomodel/opt_cache.h"
#include "iomodel/trace.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

namespace ccs {
namespace {

/// Runs `s` under a recording LRU cache of `cache_words`, returning the
/// block trace and the LRU miss count.
std::pair<std::vector<iomodel::BlockId>, std::int64_t> record_run(
    const sdf::SdfGraph& g, const schedule::Schedule& s, std::int64_t cache_words,
    std::int64_t rounds) {
  iomodel::LruCache lru(iomodel::CacheConfig{cache_words, 8});
  iomodel::RecordingCache recorder(lru);
  runtime::Engine engine(g, s.buffer_caps, recorder);
  for (std::int64_t r = 0; r < rounds; ++r) (void)engine.run(s.period);
  return {iomodel::to_block_trace(recorder.trace(), 8), lru.stats().misses};
}

TEST(OptProperty, LruNeverBeatsOptOnScheduleTraces) {
  Rng rng(515);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = workloads::random_pipeline(10, 16, 120, 3, rng);
    const auto s = schedule::naive_minimal_buffer_schedule(g);
    const auto [trace, lru_misses] = record_run(g, s, 1024, 4);
    const auto opt = iomodel::opt_misses(trace, 1024 / 8);
    EXPECT_GE(lru_misses, opt) << "trial " << trial;
  }
}

TEST(OptProperty, LruWithDoubleCacheWithinTwoXOfOpt) {
  // Sleator-Tarjan: LRU(2k) <= 2 * OPT(k) + k on any trace. Check it on a
  // partitioned schedule's real trace.
  const auto g = workloads::uniform_pipeline(12, 128);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 256;
  opts.cache.block_words = 8;
  const auto plan = core::Planner(g, opts).plan();
  const std::int64_t k_blocks = 128;  // OPT's capacity (in blocks)
  const auto [trace, lru_misses] = record_run(g, plan.schedule, 2 * k_blocks * 8, 3);
  const auto opt = iomodel::opt_misses(trace, k_blocks);
  EXPECT_LE(static_cast<double>(lru_misses),
            2.0 * static_cast<double>(opt) + static_cast<double>(k_blocks));
}

TEST(OptProperty, PartitionedScheduleTraceNearOptimalForItsCache) {
  // The partitioned schedule is designed so LRU behaves like an ideal
  // cache on its trace: LRU misses should sit within a small factor of
  // OPT at the same capacity (no pathological LRU blowup).
  const auto g = workloads::uniform_pipeline(12, 128);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 256;
  opts.cache.block_words = 8;
  const auto plan = core::Planner(g, opts).plan();
  const std::int64_t cache_words = 4 * 256;
  const auto [trace, lru_misses] = record_run(g, plan.schedule, cache_words, 3);
  const auto opt = iomodel::opt_misses(trace, cache_words / 8);
  EXPECT_LE(static_cast<double>(lru_misses), 3.0 * static_cast<double>(opt) + 64.0);
}

}  // namespace
}  // namespace ccs
