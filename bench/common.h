// Shared helpers for the experiment harness (e01..e12).
//
// Every experiment binary prints one or more ccs::Table blocks to stdout and
// exits 0; `for b in build/bench/*; do $b; done` regenerates every table in
// EXPERIMENTS.md. Binaries accept no required arguments so the sweep is
// hands-off; optional --csv switches the output format.
#pragma once

#include <iostream>
#include <string>

#include "core/planner.h"
#include "core/scheduler.h"
#include "schedule/schedule.h"
#include "util/table.h"

namespace ccs::bench {

/// Simulates `s` on a fresh LRU cache until `outputs` sink firings.
inline runtime::RunResult run(const sdf::SdfGraph& g, const schedule::Schedule& s,
                              std::int64_t cache_words, std::int64_t block_words,
                              std::int64_t outputs) {
  return core::simulate(g, s, iomodel::CacheConfig{cache_words, block_words}, outputs);
}

/// Prints a table, honoring a --csv flag in argv.
inline void emit(const Table& t, int argc, char** argv) {
  const bool csv = argc > 1 && std::string(argv[1]) == "--csv";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\n";
}

/// Formats a ratio column defensively (divide-by-zero -> "-").
inline std::string safe_ratio(double num, double den, int precision = 2) {
  if (den <= 0.0) return "-";
  return Table::ratio(num / den, precision);
}

}  // namespace ccs::bench
