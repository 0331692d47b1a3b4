// Parallel asynchronous component scheduling (Section 3's extension and the
// multiprocessor direction of Section 7).
//
// The paper observes that the homogeneous component schedule "readily
// generalizes to the asynchronous or parallel case": any component with M
// tokens on all incoming cross edges and empty outgoing cross edges may
// execute, independently of the others. This module simulates P workers,
// each with a private cache, claiming schedulable components greedily:
//
//  * token state is shared; a component's effects commit when its batch
//    finishes (claim-time checks make concurrent neighbors impossible, so
//    commit order cannot oversubscribe a buffer);
//  * execution time of a batch is its firing count (unit work per firing);
//  * each worker's misses are simulated on its own LRU cache, so component
//    migration between workers pays real reload costs.
//
// The paper's §7 remark -- the optimal uniprocessor schedule trivially
// minimizes total misses, and multiprocessors trade extra (re)loads for
// load balance -- is exactly what experiment E14 measures with this
// simulator: near-flat total misses and near-linear makespan scaling while
// enough independent components exist.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "iomodel/cache.h"
#include "partition/partition.h"
#include "sdf/graph.h"

namespace ccs::schedule {

/// Result of a parallel simulation.
struct ParallelResult {
  std::int32_t workers = 0;                   ///< Worker count simulated.
  std::int64_t makespan = 0;                  ///< Time units until last completion.
  std::int64_t total_misses = 0;              ///< Summed over worker caches.
  std::int64_t total_firings = 0;             ///< Module firings across all workers.
  std::int64_t outputs = 0;                   ///< Sink firings completed.
  std::vector<std::int64_t> worker_misses;    ///< Per worker.
  std::vector<std::int64_t> worker_busy;      ///< Busy time units per worker.
  std::vector<std::int64_t> worker_batches;   ///< Component batches per worker.

  /// Shared-LLC counters when the run executed over a pool with a shared
  /// last level (core::simulate_parallel_on_pool); all-zero otherwise.
  iomodel::CacheStats llc;

  /// Busy-time balance: worst worker / average of busy time (1.0 = perfect
  /// balance). A pool that did no work at all -- no workers, or every
  /// worker idle -- reports 0.0: "no imbalance" is the only meaningful
  /// reading of an idle pool, and it keeps the value finite.
  double imbalance() const;
};

/// Simulates the asynchronous homogeneous schedule on caller-provided
/// per-worker caches (one per worker, all sharing one block size, typically
/// fresh/cold) until the sink completes at least `min_outputs` firings.
/// Requires a homogeneous graph and a well-ordered partition whose
/// components have state at most the worker cache size. A
/// runtime::WorkerPool's private L1s plug in through
/// core::simulate_parallel_on_pool (bit-identical per-worker counters,
/// since a private level's behaviour is independent of any shared level
/// behind it). The caches must outlive the call.
ParallelResult simulate_parallel_homogeneous(const sdf::SdfGraph& g,
                                             const partition::Partition& p, std::int64_t m,
                                             std::span<iomodel::CacheSim* const> worker_caches,
                                             std::int64_t min_outputs);

}  // namespace ccs::schedule
