// Execution scaling (Sermulins et al., LCTES'05) baseline.
//
// Start from the single-appearance steady state and replace each module's
// q(v) firings by s*q(v) back-to-back firings, choosing the largest s whose
// buffer growth avoids "catastrophic spills": every module's working set
// (its state plus the buffers on its incident channels) must still fit in
// the cache. Scaling amortizes state loads across s iterations but -- as
// the paper observes in Section 6 -- explores only schedules derived from
// one fixed steady state, so it cannot exploit partition structure and is
// suboptimal on graphs whose state is concentrated in a few hot regions.
#pragma once

#include <cstdint>

#include "schedule/schedule.h"
#include "sdf/graph.h"

namespace ccs::schedule {

/// Cap on the scale factor. The optimum is found by direct maximization;
/// the cap guards against degenerate graphs with near-zero buffer cost.
inline constexpr std::int64_t kMaxScale = std::int64_t{1} << 20;

/// Builds the scaled schedule for cache size `m` (words).
Schedule scaled_schedule(const sdf::SdfGraph& g, std::int64_t m);

/// The scale factor the schedule above would choose, in [1, kMaxScale]
/// (exposed for tests and the E8 ablation).
std::int64_t choose_scale_factor(const sdf::SdfGraph& g, std::int64_t m);

}  // namespace ccs::schedule
