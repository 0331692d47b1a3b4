// Classified miss accounting: state vs channel vs external IO.
#include <gtest/gtest.h>

#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "sdf/min_buffer.h"
#include "workloads/pipelines.h"

namespace ccs::runtime {
namespace {

using iomodel::CacheConfig;
using iomodel::LruCache;
using sdf::FiringProgram;
using sdf::NodeId;

TEST(Classification, PartsSumToTotal) {
  const auto g = ccs::workloads::uniform_pipeline(6, 64);
  LruCache cache(CacheConfig{1024, 8});
  Engine engine(g, sdf::feasible_buffers(g), cache);
  std::vector<NodeId> seq;
  for (int iter = 0; iter < 5; ++iter) {
    for (NodeId v = 0; v < 6; ++v) seq.push_back(v);
  }
  const RunResult r = engine.run(FiringProgram(seq));
  EXPECT_EQ(r.state_misses + r.channel_misses + r.io_misses, r.cache.misses);
  EXPECT_GT(r.state_misses, 0);
}

TEST(Classification, ThrashingShowsUpAsStateMisses) {
  // Cache holds one module's state at a time: every firing reloads state.
  const auto g = ccs::workloads::uniform_pipeline(4, 512);
  LruCache cache(CacheConfig{1024, 8});
  EngineOptions opts;
  opts.model_external_io = false;
  Engine engine(g, sdf::feasible_buffers(g), cache, opts);
  std::vector<NodeId> seq;
  for (int iter = 0; iter < 4; ++iter) {
    for (NodeId v = 0; v < 4; ++v) seq.push_back(v);
  }
  const RunResult r = engine.run(FiringProgram(seq));
  EXPECT_GT(r.state_misses, r.channel_misses * 10);
  EXPECT_EQ(r.io_misses, 0);
}

TEST(Classification, ExternalIoIsolated) {
  const auto g = ccs::workloads::uniform_pipeline(2, 8);
  LruCache cache(CacheConfig{4096, 8});
  Engine engine(g, sdf::feasible_buffers(g), cache);
  std::vector<NodeId> seq;
  for (int i = 0; i < 64; ++i) {
    seq.push_back(0);
    seq.push_back(1);
  }
  const RunResult r = engine.run(FiringProgram(seq));
  // 64 reads (8 blocks) + 64 writes (8 blocks) of external streams.
  EXPECT_EQ(r.io_misses, 16);
}

TEST(Classification, DeltasResetBetweenRuns) {
  const auto g = ccs::workloads::uniform_pipeline(2, 64);
  LruCache cache(CacheConfig{4096, 8});
  Engine engine(g, sdf::feasible_buffers(g), cache);
  const std::vector<NodeId> seq{0, 1};
  const RunResult r1 = engine.run(FiringProgram(seq));
  const RunResult r2 = engine.run(FiringProgram(seq));
  EXPECT_GT(r1.state_misses, 0);
  EXPECT_EQ(r2.state_misses, 0);  // resident on the second run
}

}  // namespace
}  // namespace ccs::runtime
