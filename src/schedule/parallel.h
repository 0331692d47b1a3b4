// Result of the parallel asynchronous component simulator (Section 3's
// extension and the multiprocessor direction of Section 7).
//
// The simulator itself is core::simulate_parallel_on_pool: the
// homogeneous-m-batch online policy decides which component a worker
// claims, and one runtime::Engine runs each claimed batch on that worker's
// private cache. The result lives here, below core, because
// schedule::write_parallel_json serializes it.
#pragma once

#include <cstdint>
#include <vector>

#include "iomodel/cache.h"

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
  /// last level; all-zero otherwise.
  iomodel::CacheStats llc;

  /// Busy-time balance: worst worker / average of busy time (1.0 = perfect
  /// balance). A pool that did no work at all -- no workers, or every
  /// worker idle -- reports 0.0: "no imbalance" is the only meaningful
  /// reading of an idle pool, and it keeps the value finite.
  double imbalance() const;
};

}  // namespace ccs::schedule
