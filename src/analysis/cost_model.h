// Closed-form cost prediction for partitioned schedules (Lemmas 4 and 8).
//
// Per batch of T inputs, component Vi costs:
//   state term:   ceil(state(Vi)/B)            -- loading the component
//   buffer term:  ceil(internal_buffers(Vi)/B) -- its working buffers
//   cross term:   sum over incident cross edges of T*gain(e)/B
// Summed over components and divided by T this gives predicted misses per
// input, which the simulator should reproduce within a small constant
// (experiment E2 checks exactly this agreement).
#pragma once

#include <cstdint>
#include <span>

#include "partition/partition.h"
#include "sdf/graph.h"

namespace ccs::analysis {

/// Breakdown of the Lemma 4/8 accounting.
struct CostPrediction {
  double state_term = 0;    ///< Misses/batch loading component state.
  double buffer_term = 0;   ///< Misses/batch touching internal buffers.
  double cross_term = 0;    ///< Misses/batch streaming cross-edge tokens.
  double misses_per_batch = 0;
  double misses_per_input = 0;  ///< misses_per_batch / T.
};

/// Predicts the partitioned scheduler's cost for batch size `t` source
/// firings on geometry (m, b). Uses the same internal buffer sizing as the
/// scheduler: `feasible_buffers` must be sdf::feasible_buffers(g).
CostPrediction predict_partitioned_cost(const sdf::SdfGraph& g,
                                        const partition::Partition& p, std::int64_t t,
                                        std::int64_t b,
                                        std::span<const std::int64_t> feasible_buffers);

}  // namespace ccs::analysis
