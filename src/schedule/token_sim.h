// Pure token-counting simulator (no cache, no memory).
//
// Schedulers *generate* firing sequences by simulating token counts, and the
// validator replays sequences the same way. Keeping this separate from the
// cache-simulating runtime::Engine means schedule construction never touches
// the measured cache, and the engine never needs scheduling logic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sdf/graph.h"
#include "util/contract.h"

namespace ccs::schedule {

/// Channel token counts + firing bookkeeping for one graph. Each module's
/// ports are flattened into one array at construction; the probe/fire path
/// (max_batch, fire_up_to) is defined inline below because schedule
/// generation runs it once per firing.
class TokenSim {
 public:
  /// Starts with all channels empty under the given per-edge capacities
  /// (`caps` must have one entry per edge of `g`).
  TokenSim(const sdf::SdfGraph& g, std::span<const std::int64_t> caps);

  /// True iff inputs suffice and outputs have space.
  bool can_fire(sdf::NodeId v) const;

  /// Largest k such that v can fire k times back to back right now
  /// (bounded by `limit`).
  std::int64_t max_batch(sdf::NodeId v, std::int64_t limit) const;

  /// Fires v exactly `count` times. Throws ScheduleError on violation.
  void fire(sdf::NodeId v, std::int64_t count = 1);

  /// Fires v max_batch(v, limit) times in one step -- the probe is the
  /// feasibility check, so nothing is re-probed -- and returns that count
  /// (0 when v cannot fire). The batch generators' inner loop.
  std::int64_t fire_up_to(sdf::NodeId v, std::int64_t limit);

  /// One module's firing count in a bulk advance.
  struct NodeFirings {
    sdf::NodeId node;
    std::int64_t count;
  };

  /// Applies the listed firings as one net change, without checking that
  /// any order of them could run: tokens and fired counts end where the
  /// firings would leave them, and each peak is raised to its edge's final
  /// count only. That peak is exact when every edge the block touches
  /// either ends where it started, after its firings have already run once
  /// for real, or only grows -- a replayed block of whole sweeps (see
  /// run_component_share in schedule/partitioned.h). Throws ScheduleError,
  /// leaving the sim unusable, if the counts leave an edge below 0 or above
  /// its capacity.
  void advance(std::span<const NodeFirings> block);

  /// Overwrites edge e's token count with n, in [0, capacity(e)], leaving
  /// peaks and fired counts alone: seeds a planning scratch from a live
  /// execution state.
  void set_tokens(sdf::EdgeId e, std::int64_t n) {
    CCS_EXPECTS(n >= 0 && n <= capacity(e), "token count outside the edge capacity");
    tokens_[static_cast<std::size_t>(e)] = n;
  }

  /// Tokens currently queued on edge e.
  std::int64_t tokens(sdf::EdgeId e) const {
    return tokens_[static_cast<std::size_t>(e)];
  }
  /// Remaining room on edge e (capacity - tokens).
  std::int64_t space(sdf::EdgeId e) const {
    return caps_[static_cast<std::size_t>(e)] - tokens_[static_cast<std::size_t>(e)];
  }
  /// Ring capacity of edge e, as passed at construction.
  std::int64_t capacity(sdf::EdgeId e) const {
    return caps_[static_cast<std::size_t>(e)];
  }
  /// Total firings of node v so far.
  std::int64_t fired(sdf::NodeId v) const {
    return fired_[static_cast<std::size_t>(v)];
  }

  /// Highest token count ever observed per edge (validates capacity sizing).
  std::int64_t peak(sdf::EdgeId e) const {
    return peak_[static_cast<std::size_t>(e)];
  }

  /// True iff every channel is empty.
  bool drained() const;

  const sdf::SdfGraph& graph() const noexcept { return *graph_; }

 private:
  /// One channel connection of a module, flattened for the probe/fire loop.
  struct Port {
    sdf::EdgeId edge;
    std::int64_t rate;  ///< Tokens moved per firing.
  };
  /// Module v's ports: inputs in [in_begin, out_begin), outputs in
  /// [out_begin, end) of ports_.
  struct PortSpan {
    std::int32_t in_begin = 0, out_begin = 0, end = 0;
  };

  /// Moves `count` firings' tokens through v's ports (no feasibility check).
  void fire_unchecked(sdf::NodeId v, std::int64_t count);

  const sdf::SdfGraph* graph_;
  std::vector<Port> ports_;       // all ports, grouped by node
  std::vector<PortSpan> spans_;   // per node
  std::vector<std::int64_t> caps_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> peak_;
  std::vector<std::int64_t> fired_;
};

inline std::int64_t TokenSim::max_batch(sdf::NodeId v, std::int64_t limit) const {
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

inline std::int64_t TokenSim::fire_up_to(sdf::NodeId v, std::int64_t limit) {
  const std::int64_t count = max_batch(v, limit);
  if (count > 0) fire_unchecked(v, count);
  return count;
}

inline void TokenSim::fire_unchecked(sdf::NodeId v, std::int64_t count) {
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

}  // namespace ccs::schedule
