#include "schedule/scaled.h"

#include <algorithm>

#include "sdf/repetition.h"
#include "sdf/topology.h"
#include "util/contract.h"
#include "util/int_math.h"

namespace ccs::schedule {

std::int64_t choose_scale_factor(const sdf::SdfGraph& g, std::int64_t m) {
  CCS_EXPECTS(m > 0, "cache size must be positive");
  const sdf::RepetitionVector reps(g);
  // Per unit of scale, module v's working set grows by the one-iteration
  // traffic of its incident edges; its fixed part is its state.
  std::int64_t best = kMaxScale;
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    std::int64_t per_scale = 0;
    for (const sdf::EdgeId e : g.in_edges(v)) per_scale += reps.edge_tokens(e);
    for (const sdf::EdgeId e : g.out_edges(v)) per_scale += reps.edge_tokens(e);
    if (per_scale == 0) continue;
    const std::int64_t budget = m - g.node(v).state;
    best = std::min(best, std::max<std::int64_t>(budget / per_scale, 1));
  }
  // Global no-spill guard: the schedule cycles through every buffer each
  // period, so their combined footprint must also stay within (half) the
  // cache or the scaled buffers evict each other wholesale.
  std::int64_t total_tokens = 0;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) total_tokens += reps.edge_tokens(e);
  if (total_tokens > 0) {
    best = std::min(best, std::max<std::int64_t>((m / 2) / total_tokens, 1));
  }
  return std::clamp<std::int64_t>(best, 1, kMaxScale);
}

Schedule scaled_schedule(const sdf::SdfGraph& g, std::int64_t m) {
  const std::int64_t s = choose_scale_factor(g, m);
  const sdf::RepetitionVector reps(g);
  const auto topo = sdf::topological_sort(g);

  Schedule out;
  out.name = "scaled-x" + std::to_string(s);
  out.buffer_caps.resize(static_cast<std::size_t>(g.edge_count()));
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    out.buffer_caps[static_cast<std::size_t>(e)] = checked_mul(s, reps.edge_tokens(e));
  }
  for (const sdf::NodeId v : topo) {
    out.period.append_block(std::span(&v, 1), checked_mul(s, reps.count(v)));
  }
  out.inputs_per_period = s * reps.count(g.sources().front());
  out.outputs_per_period = s * reps.count(g.sinks().front());
  return out;
}

}  // namespace ccs::schedule
