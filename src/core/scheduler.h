// Single-run measurement primitive.
//
// The public planning surface is the session API in this directory:
//   core::Planner     (core/planner.h)    -- plan one graph, one session
//   core::Experiment  (core/experiment.h) -- sweep scenario grids in parallel
//   partition::Registry / schedule::Registry / workloads::Registry
//                                         -- name-addressed strategies
//
// `core::simulate` replays any scheduler's schedule on a fresh cache and is
// what Experiment runs per sweep cell:
//
//   using namespace ccs;
//   core::PlannerOptions opts;
//   opts.cache.capacity_words = 32 * 1024;
//   const core::Plan plan = core::Planner(graph, opts).plan();
//   runtime::RunResult r = core::simulate(graph, plan.schedule, opts.cache,
//                                         /*target_outputs=*/100000);
//   std::cout << r.misses_per_input() << " vs predicted "
//             << plan.predicted.misses_per_input << "\n";
#pragma once

#include <cstdint>

#include "iomodel/types.h"
#include "runtime/engine.h"
#include "runtime/run_result.h"
#include "schedule/schedule.h"
#include "sdf/graph.h"

namespace ccs::core {

/// Executes a schedule (any scheduler's) on a fresh fully-associative LRU
/// cache of the given geometry until at least `target_outputs` sink firings,
/// returning accumulated counters. Throws MemoryError for a degenerate
/// cache geometry (the same check Planner applies).
runtime::RunResult simulate(const sdf::SdfGraph& g, const schedule::Schedule& s,
                            const iomodel::CacheConfig& cache_config,
                            std::int64_t target_outputs,
                            runtime::EngineOptions engine_options = {});

}  // namespace ccs::core
