// The paper's two-level partitioned scheduler (Section 3).
//
// Given a well-ordered partition whose components fit in cache, schedule at
// batch granularity T (source firings per batch):
//  * T is chosen so that for every edge, T*gain(e) is integral, divisible
//    by both endpoint rates, and at least M -- then all progeny of the T
//    source firings can flow through the whole dag and drain completely;
//  * every cross edge gets a buffer of exactly T*gain(e) tokens;
//  * every internal edge keeps its minimal feasible buffer;
//  * the high level loads each component exactly once per batch, in
//    topological order; the low level runs the component's own steady-state
//    iterations back to back until its share of the batch is done.
//
// For homogeneous graphs this degenerates to the paper's simple form: T = M,
// unit internal buffers, and each component's low level is "fire each module
// once in topological order, M times over".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/partition.h"
#include "schedule/schedule.h"
#include "sdf/graph.h"

namespace ccs::schedule {

/// Knobs for the partitioned scheduler.
struct PartitionedOptions {
  std::int64_t m = 64 * 1024;     ///< Cache size (words); sets the batch floor.
  std::int64_t t_multiplier = 1;  ///< Scale the batch beyond the minimum legal T.
};

/// Builds the batch schedule. The partition must be well ordered; it is
/// renumbered topologically internally. Throws ccs::Error on infeasible
/// inputs and DeadlockError if a component cannot complete its share (which
/// would indicate an invalid partition/buffer combination). Internal edges
/// get `feasible_buffers`, which must be sdf::feasible_buffers(g): a caller
/// scheduling several partitions of one graph computes it once.
Schedule partitioned_schedule(const sdf::SdfGraph& g, const partition::Partition& p,
                              const PartitionedOptions& options,
                              std::span<const std::int64_t> feasible_buffers);

/// The batch granularity the scheduler would use (exposed for tests and the
/// E7 sweep).
std::int64_t compute_batch_t(const sdf::SdfGraph& g, const PartitionedOptions& options);

}  // namespace ccs::schedule
