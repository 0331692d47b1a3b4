#include "schedule/kohli.h"

#include <algorithm>

#include "sdf/min_buffer.h"
#include "sdf/repetition.h"
#include "sdf/token_sim.h"
#include "sdf/topology.h"
#include "util/error.h"

namespace ccs::schedule {

Schedule kohli_schedule(const sdf::SdfGraph& g, std::int64_t m) {
  CCS_EXPECTS(m > 0, "cache size must be positive");
  const auto chain = sdf::pipeline_order(g);  // throws if not a pipeline
  const sdf::RepetitionVector reps(g);

  Schedule out;
  out.name = "kohli";
  // Equal cache share per edge buffer; half the cache is reserved for state.
  const std::int64_t share = std::max<std::int64_t>(m / (2 * std::max(g.edge_count(), 1)), 1);
  out.buffer_caps.resize(static_cast<std::size_t>(g.edge_count()));
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    out.buffer_caps[static_cast<std::size_t>(e)] =
        std::max(share, sdf::edge_min_buffer(edge.out_rate, edge.in_rate));
  }

  // One period: enough iterations that every buffer can fill at least once,
  // then a drain phase returning all channels to empty.
  const std::int64_t iterations = std::max<std::int64_t>(
      1, (share + reps.count(chain.front()) - 1) / std::max<std::int64_t>(
                                                        reps.count(chain.front()), 1));
  const std::int64_t source_target = iterations * reps.count(chain.front());

  // Walk the chain; at each module fire the largest batch available (the
  // "keep firing while profitable" local rule) until the source has fired
  // its target, then keep sweeping with the source stopped until nothing
  // moves. A step of any module but the (limited) source fires at most
  // sum(q) times: that cap is part of the local rule, and it binds -- 12 of
  // the 32 kohli cells in tests/golden/sweep_schedules.txt (TDE at M = 4096;
  // DES, MatrixMult, TDE and Serpent at 65536, ...) change without it.
  sdf::TokenSim sim(g, out.buffer_caps);
  std::vector<std::int64_t> limit(static_cast<std::size_t>(g.node_count()), sdf::kUnbounded);
  limit[static_cast<std::size_t>(chain.front())] = source_target;
  sim.sweep(chain, limit, reps.total_firings(), out.period);
  if (!sim.drained()) {
    throw DeadlockError("kohli schedule failed to drain the pipeline");
  }
  out.inputs_per_period = sim.fired(chain.front());
  out.outputs_per_period = sim.fired(chain.back());
  return out;
}

}  // namespace ccs::schedule
