#include "schedule/validate.h"

#include "sdf/token_sim.h"
#include "util/error.h"

namespace ccs::schedule {

ScheduleReport check_schedule(const sdf::SdfGraph& g, const Schedule& s,
                              std::int32_t repeats) {
  ScheduleReport report;
  if (s.period.empty()) {
    report.problem = "empty period";
    return report;
  }
  if (s.buffer_caps.size() != static_cast<std::size_t>(g.edge_count())) {
    report.problem = "buffer capacity vector does not match edge count";
    return report;
  }
  try {
    sdf::TokenSim sim(g, s.buffer_caps);
    std::int64_t prev_source = 0;
    std::int64_t prev_sink = 0;
    const sdf::NodeId source = g.sources().front();
    const sdf::NodeId sink = g.sinks().front();
    for (std::int32_t r = 0; r < repeats; ++r) {
      s.period.for_each_firing([&sim](sdf::NodeId v) { sim.fire(v, 1); });
      if (!sim.drained()) {
        report.problem = "channels not drained at end of period " + std::to_string(r + 1);
        return report;
      }
      const std::int64_t src_delta = sim.fired(source) - prev_source;
      const std::int64_t sink_delta = sim.fired(sink) - prev_sink;
      if (src_delta != s.inputs_per_period) {
        report.problem = "declared " + std::to_string(s.inputs_per_period) +
                         " inputs per period, replay consumed " + std::to_string(src_delta);
        return report;
      }
      if (sink_delta != s.outputs_per_period) {
        report.problem = "declared " + std::to_string(s.outputs_per_period) +
                         " outputs per period, replay produced " + std::to_string(sink_delta);
        return report;
      }
      prev_source = sim.fired(source);
      prev_sink = sim.fired(sink);
    }
    report.peak.resize(static_cast<std::size_t>(g.edge_count()));
    for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
      report.peak[static_cast<std::size_t>(e)] = sim.peak(e);
    }
    report.source_firings = s.inputs_per_period;
    report.sink_firings = s.outputs_per_period;
    report.ok = true;
  } catch (const Error& e) {
    report.problem = e.what();
  }
  return report;
}

}  // namespace ccs::schedule
