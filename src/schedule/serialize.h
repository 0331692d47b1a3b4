// Textual serialization of schedules.
//
// Partitioning is a compile-time activity (the paper suggests even
// exponential partitioners are acceptable offline); a production runtime
// wants to compute a schedule once and ship it. The format is line
// oriented and references modules by name so it survives graph rebuilds
// that preserve naming:
//
//   schedule <name>
//   inputs <n>
//   outputs <n>
//   buffers <cap0> <cap1> ...          # one per edge, edge-id order
//   period <name> <name> ...           # firing order (possibly long)
//
// The period is written flat, every block of the program spelled out
// repeats times; reading yields a one-block program. Reading validates the
// schedule against the graph (module names must resolve; buffer arity must
// match) but does not replay it -- callers who distrust the source should
// run schedule::check_schedule afterwards (runtime::Engine::run proves it
// before firing either way).
#pragma once

#include <iosfwd>
#include <string>

#include "schedule/parallel.h"
#include "schedule/schedule.h"
#include "sdf/graph.h"

namespace ccs::schedule {

/// Writes `s` for graph `g`.
void write_schedule(const sdf::SdfGraph& g, const Schedule& s, std::ostream& os);

/// Convenience: schedule as text.
std::string to_text(const sdf::SdfGraph& g, const Schedule& s);

/// Parses a schedule for `g`. Throws ParseError, naming the line, on
/// malformed input: an unknown or repeated line kind, a count or capacity
/// that is not one whole non-negative integer token, or trailing tokens.
/// Throws ccs::Error when names or arities do not match the graph.
Schedule read_schedule(const sdf::SdfGraph& g, std::istream& is);

/// Convenience: parse from a string.
Schedule from_text(const sdf::SdfGraph& g, const std::string& text);

/// Writes a ParallelResult as one JSON object with a stable key order and
/// lossless integer counters, so E14-style parallel runs (and the
/// pool-backed cluster reimplementation) can be diffed in CI exactly like
/// sweep CSVs. The core::ClusterReport has a matching write_json of its own
/// (it lives a layer up and cannot be serialized from here).
void write_parallel_json(const ParallelResult& r, std::ostream& os);

/// Convenience: result as a JSON string.
std::string to_json(const ParallelResult& r);

}  // namespace ccs::schedule
