#include "schedule/dynamic.h"

#include <memory>
#include <string>

#include "schedule/online.h"
#include "sdf/token_sim.h"
#include "util/contract.h"
#include "util/error.h"

namespace ccs::schedule {

namespace {

/// EngineView over a bare TokenSim plus a driver-held credit counter.
class TokenSimView final : public EngineView {
 public:
  TokenSimView(const sdf::TokenSim& sim, const std::int64_t* credit)
      : sim_(&sim), credit_(credit) {}

  std::int64_t tokens(sdf::EdgeId e) const override { return sim_->tokens(e); }
  std::int64_t fired(sdf::NodeId v) const override { return sim_->fired(v); }
  std::int64_t input_credit() const override { return *credit_; }

 private:
  const sdf::TokenSim* sim_;
  const std::int64_t* credit_;
};

/// Materializes a policy run as one batch period: grant the policy's own
/// input allowance, step until `min_outputs` sink firings, then drain. This
/// is exactly what core::Stream does against a cache-measuring engine, so
/// the batch schedule and the online session execute identical sequences.
Schedule run_policy(const sdf::SdfGraph& g, OnlinePolicy& policy, std::int64_t min_outputs,
                    const std::string& schedule_name, const std::string& label) {
  Schedule out;
  out.name = schedule_name;
  out.buffer_caps = policy.buffer_caps();

  sdf::TokenSim sim(g, out.buffer_caps);
  std::int64_t credit = policy.batch_credit(min_outputs);
  const TokenSimView view(sim, &credit);
  const sdf::NodeId source = policy.source();
  const sdf::NodeId sink = policy.sink();

  const auto execute = [&](const sdf::FiringProgram& firings) {
    firings.for_each_firing([&](sdf::NodeId v) {
      sim.fire(v);
      if (v == source && credit != kUnlimitedCredit) --credit;
    });
    out.period.append(firings);
  };

  while (sim.fired(sink) < min_outputs) {
    const StepPlan& step = policy.next_step(view);
    if (step.idle()) {
      throw DeadlockError(label + " scheduler made no progress");
    }
    execute(step.firings);
  }
  execute(policy.plan_drain(view));
  if (!sim.drained()) {
    throw DeadlockError(label + " schedule failed to drain");
  }
  out.inputs_per_period = sim.fired(source);
  out.outputs_per_period = sim.fired(sink);
  return out;
}

}  // namespace

Schedule dynamic_pipeline_schedule(const sdf::SdfGraph& g, const partition::Partition& p,
                                   std::int64_t m, std::int64_t min_outputs) {
  CCS_EXPECTS(m > 0 && min_outputs > 0, "invalid dynamic schedule parameters");
  const auto policy = make_pipeline_half_full_policy(g, p, m);
  return run_policy(g, *policy, min_outputs, "dynamic-pipeline", "dynamic pipeline");
}

Schedule dynamic_homogeneous_schedule(const sdf::SdfGraph& g, const partition::Partition& p,
                                      std::int64_t m, std::int64_t min_outputs) {
  CCS_EXPECTS(m > 0 && min_outputs > 0, "invalid dynamic schedule parameters");
  const auto policy = make_homogeneous_m_batch_policy(g, p, m);
  return run_policy(g, *policy, min_outputs, "dynamic-homog", "dynamic homogeneous");
}

}  // namespace ccs::schedule
