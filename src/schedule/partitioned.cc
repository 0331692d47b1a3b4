#include "schedule/partitioned.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "schedule/token_sim.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "sdf/topology.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::schedule {

std::int64_t compute_batch_t(const sdf::SdfGraph& g, const PartitionedOptions& options) {
  CCS_EXPECTS(options.m > 0 && options.t_multiplier > 0, "invalid batch options");
  const sdf::GainMap gains(g);

  // Divisibility: T * gain(e) must be an integer multiple of lcm(out, in).
  std::int64_t t0 = 1;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    const Rational& ge = gains.edge_gain(e);
    const std::int64_t le = checked_lcm(edge.out_rate, edge.in_rate);
    const std::int64_t need =
        checked_mul(ge.den(), le) / gcd64(ge.num(), checked_mul(ge.den(), le));
    t0 = checked_lcm(t0, need);
  }
  // Magnitude: T * gain(e) >= m * multiplier on every edge.
  const std::int64_t floor_tokens = checked_mul(options.m, options.t_multiplier);
  std::int64_t t_min = 1;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const Rational& ge = gains.edge_gain(e);
    const Rational needed = Rational(floor_tokens) / ge;
    t_min = std::max(t_min, needed.ceil());
  }
  return checked_mul(t0, ceil_div(t_min, t0));
}

// Sweep-cycle replay. A component's low level is the same maximal sweep over
// its modules again and again, so once the tokens on its internal edges are
// back to a state seen at an earlier sweep start, the sweeps since then form
// a block that may replay exactly. Take such a block, with fired steps
// (v, batch b, want w before the step) and per-module firing counts F_v:
// its internal edges have net change 0, its cross input edges net change
// D_e <= 0 and its cross output edges D_e >= 0. Repetition k of the block
// replays exactly -- every step fires b again, and every step that fired
// nothing still fires nothing -- iff at every fired step
//   * w - k*F_v >= b (the module still wants the batch),
//   * every cross input edge still holds b*rate tokens (tok + k*D_e >= b*rate),
//   * every cross output edge still has b*rate free slots,
// where tok is the edge's count at that step of the first pass. Internal
// edges repeat their first pass exactly, and every bound above only
// tightens with k, so a step that fired nothing fires nothing again. Each
// condition reads "k*F_v <= the step's headroom", the headroom being
// min(want, floor(tokens / rate) on cross inputs, floor(space / rate) on
// cross outputs) just after the step fired; R = min over the block's steps
// of floor(headroom / F_v) repetitions are exact. A batch that was capped by
// its want or by a draining cross edge has headroom 0, so R = 0 and the next
// sweep runs for real: correctness does not depend on how cycles are found.
// (In partitioned_schedule() each cross edge holds exactly the share's
// traffic, so its bound never binds before the want bound; it matters to a
// caller whose sim cannot feed the whole share.) The block's firings then
// advance `sim` in bulk; see TokenSim::advance for why peaks stay exact.
void run_component_share(TokenSim& sim, std::span<const sdf::NodeId> order,
                         std::span<const std::int64_t> target,
                         std::vector<sdf::NodeId>& period) {
  const sdf::SdfGraph& g = sim.graph();
  const auto members = static_cast<std::int32_t>(order.size());
  // Member index of every module (-1 outside the component), the internal
  // edges, and each member's cross ports.
  std::vector<std::int32_t> member(static_cast<std::size_t>(g.node_count()), -1);
  for (std::int32_t i = 0; i < members; ++i) {
    member[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  }
  struct CrossPort {
    sdf::EdgeId edge;
    std::int64_t rate;
    bool input;
  };
  std::vector<sdf::EdgeId> internal;
  std::vector<CrossPort> cross;
  std::vector<std::size_t> cross_begin;
  cross_begin.reserve(order.size() + 1);
  for (const sdf::NodeId v : order) {
    cross_begin.push_back(cross.size());
    for (const sdf::EdgeId e : g.in_edges(v)) {
      if (member[static_cast<std::size_t>(g.edge(e).src)] < 0) {
        cross.push_back({e, g.edge(e).in_rate, true});
      }
    }
    for (const sdf::EdgeId e : g.out_edges(v)) {
      if (member[static_cast<std::size_t>(g.edge(e).dst)] < 0) {
        cross.push_back({e, g.edge(e).out_rate, false});
      } else {
        internal.push_back(e);
      }
    }
  }
  cross_begin.push_back(cross.size());

  struct Step {
    std::int32_t member;
    std::int64_t batch;
    std::int64_t headroom;
  };
  struct SweepStart {
    std::size_t step;  // first step of the sweep in `steps`
    std::size_t pos;   // period length when the sweep began
  };
  std::vector<Step> steps;
  std::vector<SweepStart> sweeps;
  std::map<std::vector<std::int64_t>, std::size_t> seen;  // internal tokens -> sweep
  std::vector<std::int64_t> snapshot;
  std::vector<std::int64_t> block_fired(order.size(), 0);
  std::vector<TokenSim::NodeFirings> block;

  std::int64_t outstanding = 0;
  for (const sdf::NodeId v : order) {
    outstanding += target[static_cast<std::size_t>(v)] - sim.fired(v);
  }
  while (outstanding > 0) {
    snapshot.clear();
    for (const sdf::EdgeId e : internal) snapshot.push_back(sim.tokens(e));
    const auto [it, fresh] = seen.try_emplace(snapshot, sweeps.size());
    if (!fresh) {
      const SweepStart from = sweeps[it->second];
      for (std::size_t k = from.step; k < steps.size(); ++k) {
        block_fired[static_cast<std::size_t>(steps[k].member)] += steps[k].batch;
      }
      std::int64_t repeats = std::numeric_limits<std::int64_t>::max();
      for (std::size_t k = from.step; k < steps.size(); ++k) {
        repeats = std::min(repeats, steps[k].headroom /
                                        block_fired[static_cast<std::size_t>(steps[k].member)]);
      }
      block.clear();
      std::int64_t block_firings = 0;
      for (std::int32_t i = 0; i < members; ++i) {
        auto& f = block_fired[static_cast<std::size_t>(i)];
        if (f == 0) continue;
        block.push_back({order[static_cast<std::size_t>(i)], checked_mul(repeats, f)});
        block_firings += f;
        f = 0;
      }
      if (repeats > 0) {
        CCS_CHECK(checked_mul(repeats, block_firings) <= outstanding,
                  "a replay never overshoots the component's share");
        // Copy the block `repeats` times. Never insert a vector's own range
        // into itself: grow first, then copy from the (stable) first pass.
        const std::size_t len = period.size() - from.pos;
        period.resize(period.size() + static_cast<std::size_t>(repeats) * len);
        sdf::NodeId* const pass = period.data() + from.pos;
        for (std::size_t k = 1; k <= static_cast<std::size_t>(repeats); ++k) {
          std::copy_n(pass, len, pass + k * len);
        }
        sim.advance(block);
        outstanding -= checked_mul(repeats, block_firings);
        // Internal tokens are back where this block began; start afresh.
        steps.clear();
        sweeps.clear();
        seen.clear();
        continue;
      }
      it->second = sweeps.size();
    }
    sweeps.push_back({steps.size(), period.size()});

    bool progressed = false;
    for (std::int32_t i = 0; i < members; ++i) {
      const sdf::NodeId v = order[static_cast<std::size_t>(i)];
      const std::int64_t want = target[static_cast<std::size_t>(v)] - sim.fired(v);
      if (want <= 0) continue;
      const std::int64_t batch = sim.fire_up_to(v, want);
      if (batch <= 0) continue;
      period.insert(period.end(), static_cast<std::size_t>(batch), v);
      outstanding -= batch;
      progressed = true;
      std::int64_t headroom = want - batch;
      for (std::size_t c = cross_begin[static_cast<std::size_t>(i)];
           c < cross_begin[static_cast<std::size_t>(i) + 1]; ++c) {
        const CrossPort& port = cross[c];
        const std::int64_t left = port.input ? sim.tokens(port.edge) : sim.space(port.edge);
        headroom = std::min(headroom, left / port.rate);
      }
      steps.push_back({i, batch, headroom});
    }
    if (!progressed) {
      throw DeadlockError("component could not complete its batch share");
    }
  }
}

Schedule partitioned_schedule(const sdf::SdfGraph& g, const partition::Partition& p,
                              const PartitionedOptions& options) {
  const auto problems = partition::validate_partition(g, p);
  if (!problems.empty()) throw Error("invalid partition: " + problems.front());
  if (!partition::is_well_ordered(g, p)) {
    throw Error("partitioned scheduling requires a well-ordered partition");
  }
  const partition::Partition topo_p = partition::renumber_topological(g, p);
  const sdf::GainMap gains(g);
  const std::int64_t t = compute_batch_t(g, options);

  Schedule out;
  out.name = "partitioned";
  out.inputs_per_period = t;

  // Buffers: exact batch traffic on cross edges, minimal feasible inside.
  const auto internal_caps = sdf::feasible_buffers(g);
  out.buffer_caps.resize(static_cast<std::size_t>(g.edge_count()));
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    if (topo_p.comp(edge.src) != topo_p.comp(edge.dst)) {
      const Rational batch_tokens = gains.edge_gain(e) * Rational(t);
      CCS_CHECK(batch_tokens.is_integer(), "T was chosen to make batch traffic integral");
      out.buffer_caps[static_cast<std::size_t>(e)] = batch_tokens.num();
    } else {
      out.buffer_caps[static_cast<std::size_t>(e)] = internal_caps[static_cast<std::size_t>(e)];
    }
  }

  // Per-batch firing target of every module: T * gain(v).
  std::vector<std::int64_t> target(static_cast<std::size_t>(g.node_count()));
  std::int64_t period_length = 0;
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    const Rational f = gains.node_gain(v) * Rational(t);
    CCS_CHECK(f.is_integer(), "T was chosen to make firing counts integral");
    target[static_cast<std::size_t>(v)] = f.num();
    period_length = checked_add(period_length, f.num());
  }
  out.period.reserve(static_cast<std::size_t>(period_length));

  // Generate one batch: components in topological order; inside a component,
  // repeated topological sweeps with maximal batching until every member
  // reaches its target. Pre-stocked inputs + exact-capacity outputs mean a
  // sweep that makes no progress indicates a real infeasibility.
  const auto comps = topo_p.components();
  const auto global_topo = sdf::topological_sort(g);
  TokenSim sim(g, out.buffer_caps);

  for (const auto& comp_nodes : comps) {
    // Sweep order = global topological order restricted to this component.
    std::vector<sdf::NodeId> order;
    order.reserve(comp_nodes.size());
    for (const sdf::NodeId v : global_topo) {
      if (topo_p.comp(v) == topo_p.comp(comp_nodes.front())) order.push_back(v);
    }
    run_component_share(sim, order, target, out.period);
  }
  CCS_ENSURES(sim.drained(), "a full batch must drain every channel");
  out.outputs_per_period = sim.fired(g.sinks().front());
  return out;
}

}  // namespace ccs::schedule
