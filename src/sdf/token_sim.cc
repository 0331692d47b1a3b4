#include "sdf/token_sim.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::sdf {

TokenSim::TokenSim(const SdfGraph& g, std::span<const std::int64_t> caps) : graph_(&g) {
  // Flatten the adjacency once so probing and firing never walk the graph.
  spans_.resize(static_cast<std::size_t>(g.node_count()));
  ports_.reserve(2 * static_cast<std::size_t>(g.edge_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    PortSpan& span = spans_[static_cast<std::size_t>(v)];
    span.in_begin = static_cast<std::int32_t>(ports_.size());
    for (const EdgeId e : g.in_edges(v)) ports_.push_back(Port{e, g.edge(e).in_rate});
    span.out_begin = static_cast<std::int32_t>(ports_.size());
    for (const EdgeId e : g.out_edges(v)) ports_.push_back(Port{e, g.edge(e).out_rate});
    span.end = static_cast<std::int32_t>(ports_.size());
  }
  reset(caps);
}

void TokenSim::reset(std::span<const std::int64_t> caps) {
  const SdfGraph& g = *graph_;
  CCS_EXPECTS(caps.size() == static_cast<std::size_t>(g.edge_count()),
              "one capacity per edge required");
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    if (caps[static_cast<std::size_t>(e)] < std::max(edge.out_rate, edge.in_rate)) {
      throw ScheduleError("capacity of edge " + std::to_string(e) +
                          " cannot hold a single burst");
    }
  }
  caps_.assign(caps.begin(), caps.end());
  tokens_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  peak_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  fired_.assign(static_cast<std::size_t>(g.node_count()), 0);
}

void TokenSim::fire(NodeId v, std::int64_t count) {
  CCS_EXPECTS(count >= 0, "negative firing count");
  if (max_batch(v, count) < count) {
    throw ScheduleError("module '" + graph_->node(v).name + "' cannot fire " +
                        std::to_string(count) + " time(s)");
  }
  fire_unchecked(v, count);
}

void TokenSim::advance(std::span<const NodeFirings> block) {
  for (const NodeFirings& f : block) {
    CCS_EXPECTS(f.count >= 0, "negative firing count");
    const PortSpan& span = spans_[static_cast<std::size_t>(f.node)];
    for (std::int32_t i = span.in_begin; i < span.out_begin; ++i) {
      const Port& p = ports_[static_cast<std::size_t>(i)];
      tokens_[static_cast<std::size_t>(p.edge)] -= f.count * p.rate;
    }
    for (std::int32_t i = span.out_begin; i < span.end; ++i) {
      const Port& p = ports_[static_cast<std::size_t>(i)];
      tokens_[static_cast<std::size_t>(p.edge)] += f.count * p.rate;
    }
    fired_[static_cast<std::size_t>(f.node)] += f.count;
  }
  for (const NodeFirings& f : block) {
    const PortSpan& span = spans_[static_cast<std::size_t>(f.node)];
    for (std::int32_t i = span.in_begin; i < span.end; ++i) {
      const auto e = static_cast<std::size_t>(ports_[static_cast<std::size_t>(i)].edge);
      if (tokens_[e] < 0 || tokens_[e] > caps_[e]) {
        throw ScheduleError("bulk advance leaves edge " + std::to_string(e) +
                            " outside [0, capacity]");
      }
      // Like firing, only producing raises a peak.
      if (i >= span.out_begin) peak_[e] = std::max(peak_[e], tokens_[e]);
    }
  }
}

// Sweep-cycle replay. A sweep is the same pass over `order` again and
// again, so once the tokens on the edges inside `order` are back to a state
// seen at an earlier sweep start, the sweeps since then form a block that
// may replay exactly. Take such a block, with fired steps (v, batch b,
// w = limit[v] - fired(v) before the step) and per-module firing counts F_v:
// its internal edges have net change 0, the cross edges into `order` net
// change D_e <= 0 and the cross edges out of it D_e >= 0 (their far ends
// never fire here). Repetition k of the block replays exactly -- every step
// fires b again, and every step that fired nothing still fires nothing --
// iff at every fired step
//   * w - k*F_v >= b (the module's limit still allows the batch),
//   * every cross input edge still holds b*rate tokens (tok + k*D_e >= b*rate),
//   * every cross output edge still has b*rate free slots,
// where tok is the edge's count at that step of the first pass. Internal
// edges and the step cap repeat their first pass exactly, and every other
// bound only tightens with k, so a step that fired nothing fires nothing
// again. Each condition reads "k*F_v <= the step's headroom", the headroom
// being min(w - b, floor(tokens / rate) on cross inputs, floor(space / rate)
// on cross outputs) just after the step fired; R = min over the block's
// steps of floor(headroom / F_v) repetitions are exact. A batch that was
// capped by its limit or by a draining cross edge has headroom 0, so R = 0
// and the next sweep runs for real: correctness does not depend on how
// cycles are found. The block's firings then advance the sim in bulk (see
// advance() for why peaks stay exact). A step with neither a limit nor a
// cross port bounds nothing; a block made only of such steps would repeat
// forever, the case sweep() refuses.
std::int64_t TokenSim::sweep(std::span<const NodeId> order,
                             std::span<const std::int64_t> limit, std::int64_t step_cap,
                             FiringProgram& out) {
  CCS_EXPECTS(limit.size() == static_cast<std::size_t>(graph_->node_count()),
              "one limit per node required");
  CCS_EXPECTS(step_cap > 0, "step cap must be positive");
  const SdfGraph& g = *graph_;
  SweepScratch& s = scratch_;
  const auto members = static_cast<std::int32_t>(order.size());
  s.member.assign(static_cast<std::size_t>(g.node_count()), -1);
  for (std::int32_t i = 0; i < members; ++i) {
    s.member[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  }
  // Reserved whole, so a fresh sim allocates each working vector once.
  s.internal.clear();
  s.internal.reserve(static_cast<std::size_t>(g.edge_count()));
  s.cross.clear();
  s.cross.reserve(2 * static_cast<std::size_t>(g.edge_count()));
  s.cross_begin.clear();
  s.cross_begin.reserve(order.size() + 1);
  for (const NodeId v : order) {
    s.cross_begin.push_back(s.cross.size());
    for (const EdgeId e : g.in_edges(v)) {
      if (s.member[static_cast<std::size_t>(g.edge(e).src)] < 0) {
        s.cross.push_back({e, g.edge(e).in_rate, true});
      }
    }
    for (const EdgeId e : g.out_edges(v)) {
      if (s.member[static_cast<std::size_t>(g.edge(e).dst)] < 0) {
        s.cross.push_back({e, g.edge(e).out_rate, false});
      } else {
        s.internal.push_back(e);
      }
    }
  }
  s.cross_begin.push_back(s.cross.size());
  s.block_fired.assign(order.size(), 0);
  s.steps.reserve(order.size());
  s.snapshot.reserve(s.internal.size());
  s.saved.reserve(s.internal.size());

  // Cycle detection (Brent's): each sweep start's internal tokens are
  // compared with those saved at a checkpoint sweep, which moves to the
  // current sweep whenever the distance to it reaches the next power of
  // two. A cycle of L sweeps entered after sweep m is caught within about
  // 2 * (m + L) sweeps, at the cost of one comparison a sweep.
  std::size_t checkpoint = 0;  // out.mark() when the checkpoint sweep began
  std::size_t distance = 0;    // sweeps since the checkpoint; 0 sets a new one
  std::size_t power = 1;
  const std::int64_t start = out.size();
  while (true) {
    s.snapshot.clear();
    for (const EdgeId e : s.internal) s.snapshot.push_back(tokens(e));
    if (distance > 0 && s.snapshot == s.saved) {
      for (const SweepScratch::Step& step : s.steps) {
        s.block_fired[static_cast<std::size_t>(step.member)] += step.batch;
      }
      std::int64_t repeats = kUnbounded;
      for (const SweepScratch::Step& step : s.steps) {
        if (step.headroom == kUnbounded) continue;
        repeats = std::min(repeats,
                           step.headroom / s.block_fired[static_cast<std::size_t>(step.member)]);
      }
      if (repeats == kUnbounded) {
        throw ScheduleError("sweep repeats a cycle forever: no limit or cross edge stops it");
      }
      s.block.clear();
      for (std::int32_t i = 0; i < members; ++i) {
        auto& f = s.block_fired[static_cast<std::size_t>(i)];
        if (f == 0) continue;
        s.block.push_back({order[static_cast<std::size_t>(i)], checked_mul(repeats, f)});
        f = 0;
      }
      distance = 0;
      if (repeats > 0) {
        out.repeat_since(checkpoint, repeats);
        advance(s.block);
        // Internal tokens are back where this block began; start afresh.
        power = 1;
        continue;
      }
    }
    if (distance == power) {
      power *= 2;
      distance = 0;
    }
    if (distance == 0) {
      s.saved.swap(s.snapshot);
      s.steps.clear();
      checkpoint = out.mark();
    }
    ++distance;

    bool progressed = false;
    for (std::int32_t i = 0; i < members; ++i) {
      const NodeId v = order[static_cast<std::size_t>(i)];
      const std::int64_t lim = limit[static_cast<std::size_t>(v)];
      const std::int64_t want = lim == kUnbounded ? step_cap : lim - fired(v);
      if (want <= 0) continue;
      const std::int64_t batch = fire_up_to(v, want);
      if (batch <= 0) continue;
      out.append(v, batch);
      progressed = true;
      std::int64_t headroom = lim == kUnbounded ? kUnbounded : want - batch;
      for (std::size_t c = s.cross_begin[static_cast<std::size_t>(i)];
           c < s.cross_begin[static_cast<std::size_t>(i) + 1]; ++c) {
        const SweepScratch::CrossPort& port = s.cross[c];
        const std::int64_t left = port.input ? tokens(port.edge) : space(port.edge);
        headroom = std::min(headroom, left / port.rate);
      }
      s.steps.push_back({i, batch, headroom});
    }
    if (!progressed) break;
  }
  return out.size() - start;
}

bool TokenSim::drained() const {
  return std::all_of(tokens_.begin(), tokens_.end(),
                     [](std::int64_t t) { return t == 0; });
}

}  // namespace ccs::sdf
