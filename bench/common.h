// Shared helpers for the experiment harness (e01..e12).
//
// Every experiment binary prints one or more ccs::Table blocks to stdout and
// exits 0; `for b in build/bench/*; do $b; done` regenerates every table in
// EXPERIMENTS.md. Binaries accept no required arguments so the sweep is
// hands-off; optional --csv switches the output format, and any other flag
// is an error.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/planner.h"
#include "core/scheduler.h"
#include "schedule/schedule.h"
#include "util/args.h"
#include "util/error.h"
#include "util/table.h"

namespace ccs::bench {

/// Simulates `s` on a fresh LRU cache until `outputs` sink firings.
inline runtime::RunResult run(const sdf::SdfGraph& g, const schedule::Schedule& s,
                              std::int64_t cache_words, std::int64_t block_words,
                              std::int64_t outputs) {
  return core::simulate(g, s, iomodel::CacheConfig{cache_words, block_words}, outputs);
}

/// Parses a driver's flags -- --csv is the only one -- at the top of main,
/// so a typo fails before the run. Returns whether --csv was given; prints
/// usage and exits 0 on --help, prints "error: ..." and exits 1 on any
/// other flag.
inline bool parse_flags(int argc, char** argv) {
  ArgParser args(argc > 0 ? argv[0] : "bench", "prints this experiment's tables");
  args.add_flag("csv", "emit CSV instead of aligned tables");
  try {
    if (!args.parse(argc, argv)) std::exit(0);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
  return args.get_flag("csv");
}

/// Prints a table, as CSV when `csv` is set.
inline void emit(const Table& t, bool csv) {
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
