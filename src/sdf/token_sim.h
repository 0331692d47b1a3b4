// Pure token-counting simulator (no cache, no memory).
//
// Schedulers *generate* firing sequences by simulating token counts, and the
// validator replays sequences the same way. Keeping this separate from the
// cache-simulating runtime::Engine means schedule construction never touches
// the measured cache, and the engine never needs scheduling logic. It needs
// nothing but the graph, so it lives with it: sdf::feasible_buffers() runs
// the same sweep the schedulers do.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sdf/firing_program.h"
#include "sdf/graph.h"
#include "util/contract.h"

namespace ccs::sdf {

/// A TokenSim::sweep limit or step cap that never binds.
inline constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max();

/// Channel token counts + firing bookkeeping for one graph. Each module's
/// ports are flattened into one array at construction; the probe/fire path
/// (max_batch, fire_up_to) is defined inline below because schedule
/// generation runs it once per firing.
class TokenSim {
 public:
  /// Starts with all channels empty under the given per-edge capacities
  /// (`caps` must have one entry per edge of `g`).
  TokenSim(const SdfGraph& g, std::span<const std::int64_t> caps);

  /// Returns to the constructed state under new capacities `caps`: every
  /// channel empty, every count 0. Reuses the flattened ports and sweep()'s
  /// working set, so a caller retrying under grown capacities allocates
  /// nothing.
  void reset(std::span<const std::int64_t> caps);

  /// Largest k such that v can fire k times back to back right now
  /// (bounded by `limit`).
  std::int64_t max_batch(NodeId v, std::int64_t limit) const;

  /// Fires v exactly `count` times. Throws ScheduleError on violation.
  void fire(NodeId v, std::int64_t count = 1);

  /// Fires v max_batch(v, limit) times in one step -- the probe is the
  /// feasibility check, so nothing is re-probed -- and returns that count
  /// (0 when v cannot fire). The inner step of sweep().
  std::int64_t fire_up_to(NodeId v, std::int64_t limit);

  /// The fire-until-stuck loop of every generator (the paper's low level):
  /// sweeps over `order`, each module v firing the largest batch the
  /// channels allow -- at most limit[v] - fired(v) more in all (`limit` is
  /// indexed by NodeId), or, for a module whose limit is kUnbounded, at
  /// most `step_cap` in one step -- and sweeps again until one sweep fires
  /// nothing. Appends the firings to `out` and returns how many. Repeated
  /// sweep cycles are replayed in bulk, with exactly the result of running
  /// them (see token_sim.cc), and land in `out` as one block run 1 + R
  /// times. Whether every limit was reached is the caller's check. Throws
  /// ScheduleError, leaving the sim mid-sweep, when a cycle would repeat
  /// forever: no limit and no edge leaving `order` stops it.
  std::int64_t sweep(std::span<const NodeId> order, std::span<const std::int64_t> limit,
                     std::int64_t step_cap, FiringProgram& out);

  /// One module's firing count in a bulk advance.
  struct NodeFirings {
    NodeId node;
    std::int64_t count;
  };

  /// Applies the listed firings as one net change, without checking that
  /// any order of them could run: tokens and fired counts end where the
  /// firings would leave them, and the peak of each edge a listed module
  /// produces onto is raised to its final count only. That peak is exact
  /// when every such edge either ends where it started, after its firings
  /// have already run once for real, or only grows -- a replayed block of
  /// whole sweeps (see sweep()). Throws ScheduleError, leaving the sim
  /// unusable, if the counts leave an edge below 0 or above its capacity.
  void advance(std::span<const NodeFirings> block);

  /// Overwrites edge e's token count with n, in [0, capacity(e)], leaving
  /// peaks and fired counts alone: seeds a planning scratch from a live
  /// execution state.
  void set_tokens(EdgeId e, std::int64_t n) {
    CCS_EXPECTS(n >= 0 && n <= capacity(e), "token count outside the edge capacity");
    tokens_[static_cast<std::size_t>(e)] = n;
  }

  /// Tokens currently queued on edge e.
  std::int64_t tokens(EdgeId e) const {
    return tokens_[static_cast<std::size_t>(e)];
  }
  /// Remaining room on edge e (capacity - tokens).
  std::int64_t space(EdgeId e) const {
    return caps_[static_cast<std::size_t>(e)] - tokens_[static_cast<std::size_t>(e)];
  }
  /// Ring capacity of edge e, as passed at construction.
  std::int64_t capacity(EdgeId e) const {
    return caps_[static_cast<std::size_t>(e)];
  }
  /// Total firings of node v so far.
  std::int64_t fired(NodeId v) const {
    return fired_[static_cast<std::size_t>(v)];
  }

  /// Highest token count ever observed per edge (validates capacity sizing).
  std::int64_t peak(EdgeId e) const {
    return peak_[static_cast<std::size_t>(e)];
  }

  /// True iff every channel is empty.
  bool drained() const;

  const SdfGraph& graph() const noexcept { return *graph_; }

 private:
  /// One channel connection of a module, flattened for the probe/fire loop.
  struct Port {
    EdgeId edge;
    std::int64_t rate;  ///< Tokens moved per firing.
  };
  /// Module v's ports: inputs in [in_begin, out_begin), outputs in
  /// [out_begin, end) of ports_.
  struct PortSpan {
    std::int32_t in_begin = 0, out_begin = 0, end = 0;
  };

  /// Moves `count` firings' tokens through v's ports (no feasibility check).
  void fire_unchecked(NodeId v, std::int64_t count);

  /// sweep()'s working set, kept across calls so that a long-lived sim (an
  /// online policy's planning scratch) sweeps without allocating.
  struct SweepScratch {
    /// A port of an `order` module on an edge leaving or entering `order`.
    struct CrossPort {
      EdgeId edge;
      std::int64_t rate;
      bool input;
    };
    /// A step that fired: its module's index in `order`, its batch, and the
    /// firings its limit and cross ports still allow after it.
    struct Step {
      std::int32_t member;
      std::int64_t batch;
      std::int64_t headroom;
    };
    std::vector<std::int32_t> member;  ///< Index in `order`, -1 outside.
    std::vector<EdgeId> internal;
    std::vector<CrossPort> cross;      ///< Grouped by member.
    std::vector<std::size_t> cross_begin;
    std::vector<Step> steps;             ///< Since the cycle checkpoint.
    std::vector<std::int64_t> snapshot;  ///< Internal tokens at this sweep's start,
    std::vector<std::int64_t> saved;     ///< and at the checkpoint sweep's.
    std::vector<std::int64_t> block_fired;
    std::vector<NodeFirings> block;
  };

  const SdfGraph* graph_;
  SweepScratch scratch_;
  std::vector<Port> ports_;       // all ports, grouped by node
  std::vector<PortSpan> spans_;   // per node
  std::vector<std::int64_t> caps_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> peak_;
  std::vector<std::int64_t> fired_;
};

inline std::int64_t TokenSim::max_batch(NodeId v, std::int64_t limit) const {
  CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
  const PortSpan& span = spans_[static_cast<std::size_t>(v)];
  std::int64_t batch = limit;
  for (std::int32_t i = span.in_begin; i < span.out_begin; ++i) {
    const Port& p = ports_[static_cast<std::size_t>(i)];
    batch = std::min(batch, tokens(p.edge) / p.rate);
  }
  for (std::int32_t i = span.out_begin; i < span.end; ++i) {
    const Port& p = ports_[static_cast<std::size_t>(i)];
    batch = std::min(batch, space(p.edge) / p.rate);
  }
  return std::max<std::int64_t>(batch, 0);
}

inline std::int64_t TokenSim::fire_up_to(NodeId v, std::int64_t limit) {
  const std::int64_t count = max_batch(v, limit);
  if (count > 0) fire_unchecked(v, count);
  return count;
}

inline void TokenSim::fire_unchecked(NodeId v, std::int64_t count) {
  const PortSpan& span = spans_[static_cast<std::size_t>(v)];
  for (std::int32_t i = span.in_begin; i < span.out_begin; ++i) {
    const Port& p = ports_[static_cast<std::size_t>(i)];
    tokens_[static_cast<std::size_t>(p.edge)] -= count * p.rate;
  }
  for (std::int32_t i = span.out_begin; i < span.end; ++i) {
    const Port& p = ports_[static_cast<std::size_t>(i)];
    auto& t = tokens_[static_cast<std::size_t>(p.edge)];
    t += count * p.rate;
    auto& peak = peak_[static_cast<std::size_t>(p.edge)];
    peak = std::max(peak, t);
  }
  fired_[static_cast<std::size_t>(v)] += count;
}

}  // namespace ccs::sdf
