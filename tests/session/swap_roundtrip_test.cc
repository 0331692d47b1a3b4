// The swap tier's core invariant, as a standalone property suite:
// serialize -> destroy -> rebuild -> restore at an arbitrary quiescent
// point is BIT-IDENTICAL to never having swapped -- counters, outputs, and
// even the shared cache's own statistics, because rebuilding a Stream
// issues no cache traffic and restore only rewrites host-side state. The
// same holds when only the engine dies (release_engine -> attach_engine ->
// restore on the same Stream, core::Cluster's swap path): the kept policy
// plans identically from the restored tokens.
//
// The suite sweeps random graphs (random pipelines and layered dags) x
// partial progress (saving mid-burst, with arrivals still queued and
// channels non-empty) x repeated round trips, against an undisturbed twin
// driven through the identical push/step schedule.

#include <gtest/gtest.h>

#include <memory>

#include "core/stream.h"
#include "iomodel/cache.h"
#include "partition/dag_greedy.h"
#include "partition/pipeline_dp.h"
#include "session/swap.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace ccs::core {
namespace {

using iomodel::CacheConfig;
using iomodel::LruCache;

struct Scenario {
  sdf::SdfGraph graph;
  partition::Partition partition;
  std::int64_t m = 0;
  CacheConfig cache{2048, 8};
};

struct Outcome {
  runtime::RunResult totals;
  iomodel::CacheStats cache;
  std::int64_t steps = 0;
  std::int64_t outputs = 0;
  std::int64_t pending = 0;
};

/// How a round ends in drive().
enum class Swap {
  kNone,            ///< The Stream and its engine survive throughout.
  kRebuildStream,   ///< Save, pack, unpack, destroy the Stream, build a twin, restore.
  kReleaseEngine,   ///< Save, pack, unpack, release the engine, attach a new one, restore.
};

/// Drives one session through `rounds` of (push, a few steps -- deliberately
/// too few to drain, so queues stay non-empty), then a final drain; every
/// round ends as `swap` says.
Outcome drive(const Scenario& s, std::int64_t rounds, std::int64_t items,
              std::int64_t steps_per_round, Swap swap) {
  LruCache cache(s.cache);
  auto stream = std::make_unique<Stream>(s.graph, s.partition, cache, s.m);
  const schedule::OnlinePolicy* const policy = &stream->policy();
  for (std::int64_t round = 0; round < rounds; ++round) {
    stream->push(items);
    for (std::int64_t k = 0; k < steps_per_round; ++k) {
      if (!stream->step().progressed()) break;
    }
    if (swap == Swap::kNone) continue;
    const session::SessionSnapshot snapshot = stream->save_state();
    const session::SessionSnapshot back = session::SwapImage::pack(snapshot).unpack();
    EXPECT_EQ(snapshot, back);  // the codec itself is lossless
    if (swap == Swap::kRebuildStream) {
      stream.reset();  // the engine, channels, and policy die here
      stream = std::make_unique<Stream>(s.graph, s.partition, cache, s.m);
    } else {
      stream->release_engine();  // only the engine and channels die here
      EXPECT_FALSE(stream->has_engine());
      EXPECT_EQ(stream->stats(), snapshot.totals);  // readable while released
      EXPECT_EQ(stream->steps(), snapshot.steps);
      stream->attach_engine(cache, /*address_base=*/0);
      EXPECT_EQ(&stream->policy(), policy);  // the same policy plans on
    }
    stream->restore_state(back);
  }
  stream->drain();
  Outcome out;
  out.totals = stream->stats();
  out.cache = cache.stats();
  out.steps = stream->steps();
  out.outputs = stream->outputs_produced();
  out.pending = stream->pending_inputs();
  return out;
}

void expect_bit_identical(const Scenario& s, std::int64_t rounds, std::int64_t items,
                          std::int64_t steps_per_round) {
  const Outcome plain = drive(s, rounds, items, steps_per_round, Swap::kNone);
  for (const Swap swap : {Swap::kRebuildStream, Swap::kReleaseEngine}) {
    const Outcome swapped = drive(s, rounds, items, steps_per_round, swap);
    const int mode = static_cast<int>(swap);
    EXPECT_EQ(plain.totals, swapped.totals) << mode;
    EXPECT_EQ(plain.cache, swapped.cache) << mode;  // not one extra access
    EXPECT_EQ(plain.steps, swapped.steps) << mode;
    EXPECT_EQ(plain.outputs, swapped.outputs) << mode;
    EXPECT_EQ(plain.pending, swapped.pending) << mode;
  }
  // The run did real work, so the equality above compares real counters.
  EXPECT_GT(plain.totals.cache.accesses, 0);
  EXPECT_GT(plain.outputs, 0);
}

TEST(SwapRoundtrip, RandomPipelinesAcrossPartialProgress) {
  Rng rng(20260807);
  for (int trial = 0; trial < 8; ++trial) {
    Scenario s;
    const auto n = static_cast<std::int32_t>(rng.uniform(4, 12));
    s.graph = workloads::random_pipeline(n, 32, 256, 3, rng);
    s.m = 512;
    s.partition = partition::pipeline_optimal_partition(s.graph, 3 * s.m).partition;
    // Few steps per round: arrivals queue up and channels hold tokens when
    // the save happens -- partial progress, not a drained session.
    expect_bit_identical(s, /*rounds=*/6, /*items=*/64,
                         /*steps_per_round=*/rng.uniform(1, 5));
  }
}

TEST(SwapRoundtrip, LayeredDagsAcrossPartialProgress) {
  Rng rng(424242);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s;
    workloads::LayeredSpec spec;
    spec.layers = static_cast<std::int32_t>(rng.uniform(2, 4));
    spec.width = static_cast<std::int32_t>(rng.uniform(2, 4));
    s.graph = workloads::layered_homogeneous_dag(spec, rng);
    s.m = 512;
    s.partition = partition::dag_greedy_partition(s.graph, 3 * s.m);
    // The homogeneous-dag policy fires whole m-sized batches, so each round
    // must deliver at least one batch for the session to progress; the small
    // step count still leaves batches in flight at every save point.
    expect_bit_identical(s, /*rounds=*/5, /*items=*/s.m,
                         /*steps_per_round=*/rng.uniform(1, 4));
  }
}

TEST(SwapRoundtrip, RepeatedRoundTripsCompound) {
  // 12 consecutive swap cycles on one session: errors would accumulate if
  // any round trip lost a word.
  Scenario s;
  s.graph = workloads::heavy_tail_pipeline(10, 32, 300, 3);
  s.m = 512;
  s.partition = partition::pipeline_optimal_partition(s.graph, 3 * s.m).partition;
  expect_bit_identical(s, /*rounds=*/12, /*items=*/32, /*steps_per_round=*/2);
}

TEST(SwapRoundtrip, SaveWithEverythingQueuedRestoresExactly) {
  // Extreme partial progress: push a lot, step once, save immediately.
  Scenario s;
  s.graph = workloads::uniform_pipeline(6, 128);
  s.m = 256;
  s.partition = partition::pipeline_optimal_partition(s.graph, 3 * s.m).partition;
  expect_bit_identical(s, /*rounds=*/4, /*items=*/512, /*steps_per_round=*/1);
}

}  // namespace
}  // namespace ccs::core
