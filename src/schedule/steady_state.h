// Steady-state (periodic admissible sequential) schedule construction.
//
// One steady-state iteration fires every module v exactly q(v) times
// (repetition vector) and returns all channels to empty [Lee &
// Messerschmitt 1987]. Two classic shapes:
//  * demand-driven -- smallest buffers, maximally interleaved firings;
//  * single-appearance -- each module fires q(v) times consecutively in
//    topological order; simplest code, largest buffers (one iteration's
//    full token traffic per edge).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sdf/firing_program.h"
#include "sdf/graph.h"

namespace ccs::schedule {

/// Firing sequence completing one steady-state iteration within the given
/// capacities. Throws DeadlockError if the capacities cannot support an
/// iteration (use sdf::feasible_buffers to obtain workable ones).
sdf::FiringProgram demand_driven_iteration(const sdf::SdfGraph& g,
                                           std::span<const std::int64_t> caps);

/// Single-appearance iteration: topological order, q(v) firings each (one
/// block [v] x q(v) per module).
/// `caps_out`, if non-null, receives the per-edge capacities this shape
/// needs (the full per-iteration traffic of each edge).
sdf::FiringProgram single_appearance_iteration(const sdf::SdfGraph& g,
                                               std::vector<std::int64_t>* caps_out);

}  // namespace ccs::schedule
