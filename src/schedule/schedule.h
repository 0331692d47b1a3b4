// Schedule representation shared by all schedulers.
//
// A Schedule is a *periodic* plan: a firing program for one period (a
// sdf::FiringProgram, blocks of firings with repeat counts) plus a
// buffer-capacity assignment under which the period (a) never underflows or
// overflows a channel and (b) returns every channel to empty, so the period
// can repeat indefinitely -- the execution model of a long-running streaming
// application. Experiment harnesses repeat periods until a target output
// count is reached, which makes schedulers with different period lengths
// directly comparable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sdf/firing_program.h"
#include "sdf/graph.h"

namespace ccs::schedule {

/// One periodic schedule for a specific graph.
struct Schedule {
  std::string name;                        ///< Scheduler label for tables.
  sdf::FiringProgram period;               ///< Firing order of one period.
  std::vector<std::int64_t> buffer_caps;   ///< Ring capacity per edge (tokens).
  std::int64_t inputs_per_period = 0;      ///< Source firings per period.
  std::int64_t outputs_per_period = 0;     ///< Sink firings per period.

  /// Total buffer words the schedule asks for.
  std::int64_t total_buffer_words() const {
    std::int64_t total = 0;
    for (const auto c : buffer_caps) total += c;
    return total;
  }
};

/// Number of period repetitions needed to produce at least `target_outputs`.
std::int64_t periods_for_outputs(const Schedule& s, std::int64_t target_outputs);

}  // namespace ccs::schedule
