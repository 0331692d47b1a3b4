// schedule::OnlinePolicy -- the stateful online rules and their registry.

#include "schedule/online.h"

#include <gtest/gtest.h>

#include "partition/pipeline_dp.h"
#include "schedule/dynamic.h"
#include "sdf/token_sim.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace ccs::schedule {
namespace {

using sdf::TokenSim;

/// Minimal driver view over a TokenSim plus an explicit credit counter.
class TestView final : public EngineView {
 public:
  TestView(const TokenSim& sim, std::int64_t credit) : sim_(&sim), credit_(credit) {}

  std::int64_t tokens(sdf::EdgeId e) const override { return sim_->tokens(e); }
  std::int64_t fired(sdf::NodeId v) const override { return sim_->fired(v); }
  std::int64_t input_credit() const override { return credit_; }

  void set_credit(std::int64_t c) { credit_ = c; }
  void consume(std::int64_t n) {
    if (credit_ != kUnlimitedCredit) credit_ -= n;
  }

 private:
  const TokenSim* sim_;
  std::int64_t credit_;
};

TEST(OnlineRegistry, BuiltinsAndAutoResolution) {
  OnlineRegistry r;
  register_builtin_online_policies(r);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.contains("pipeline-half-full"));
  EXPECT_TRUE(r.contains("homogeneous-m-batch"));

  const auto pipe = ccs::workloads::uniform_pipeline(6, 50);
  EXPECT_EQ(resolve_auto_policy(pipe), "pipeline-half-full");
  // A uniform pipeline at rate 1 is also homogeneous, so both rules apply.
  EXPECT_EQ(r.applicable_keys(pipe).size(), 2u);

  Rng rng(7);
  ccs::workloads::LayeredSpec spec;
  spec.layers = 3;
  spec.width = 2;
  const auto dag = ccs::workloads::layered_homogeneous_dag(spec, rng);
  EXPECT_EQ(resolve_auto_policy(dag), "homogeneous-m-batch");

  const auto multirate = ccs::workloads::hourglass_pipeline(8, 50, 2);
  EXPECT_EQ(resolve_auto_policy(multirate), "pipeline-half-full");

  try {
    r.build("bogus", pipe, partition::Partition::whole(pipe), {});
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("valid online rules"), std::string::npos);
  }
}

TEST(PipelinePolicy, BuffersMatchTheBatchWrapper) {
  const auto g = ccs::workloads::uniform_pipeline(12, 200);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * 512);
  const auto policy = make_pipeline_half_full_policy(g, dp.partition, 512);
  const auto dyn = dynamic_pipeline_schedule(g, dp.partition, 512, 500);
  EXPECT_EQ(policy->buffer_caps(), dyn.buffer_caps);
  EXPECT_EQ(policy->name(), "pipeline-half-full");
  EXPECT_GT(policy->num_components(), 0);
}

TEST(PipelinePolicy, HalfFullScanDesignatesUpstreamOfFirstSlackEdge) {
  // Three 2-module segments over a 6-stage unit-rate pipeline.
  const auto g = ccs::workloads::uniform_pipeline(6, 50);
  const auto p =
      partition::Partition::from_components(g, {{0, 1}, {2, 3}, {4, 5}});
  const auto policy = make_pipeline_half_full_policy(g, p, 64);
  TokenSim sim(g, policy->buffer_caps());
  TestView view(sim, /*credit=*/0);

  // Empty buffers: the first cross edge is at most half full -> component 0.
  EXPECT_EQ(policy->next_component(view), 0);

  // Fill the first cross edge past half: component 1 becomes designated.
  const sdf::EdgeId first_cross = g.out_edges(1).front();
  const std::int64_t cap = sim.capacity(first_cross);
  TokenSim sim2(g, policy->buffer_caps());
  TestView view2(sim2, 0);
  for (std::int64_t i = 0; i < cap / 2 + 1; ++i) sim2.fire(0), sim2.fire(1);
  EXPECT_GT(sim2.tokens(first_cross) * 2, sim2.capacity(first_cross));
  EXPECT_EQ(policy->next_component(view2), 1);
}

TEST(PipelinePolicy, IdleWithoutCreditPlansNothingAndIsPure) {
  const auto g = ccs::workloads::uniform_pipeline(6, 50);
  const auto p = partition::Partition::from_components(g, {{0, 1, 2}, {3, 4, 5}});
  const auto policy = make_pipeline_half_full_policy(g, p, 64);
  TokenSim sim(g, policy->buffer_caps());
  TestView view(sim, /*credit=*/0);

  // No arrivals, empty channels: nothing can move.
  EXPECT_TRUE(policy->next_step(view).idle());

  // Planning is pure: asking twice with credit yields the identical plan,
  // because the policy never mutates the driver's state.
  view.set_credit(32);
  const StepPlan a = policy->next_step(view);
  const StepPlan b = policy->next_step(view);
  EXPECT_FALSE(a.idle());
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.firings, b.firings);
}

TEST(PipelinePolicy, DrainNeverPlansBeyondRemainingCredit) {
  const auto g = ccs::workloads::uniform_pipeline(6, 50);
  const auto p = partition::Partition::from_components(g, {{0, 1, 2}, {3, 4, 5}});
  const auto policy = make_pipeline_half_full_policy(g, p, 64);
  TokenSim sim(g, policy->buffer_caps());
  TestView view(sim, /*credit=*/0);
  // Unit repetition vector: fired(source) is already on an iteration
  // boundary, so a zero-credit drain plans no source firings at all.
  const auto drain = policy->plan_drain(view);
  EXPECT_TRUE(drain.empty());
}

TEST(HomogeneousPolicy, SchedulableNeedsFullInputsEmptyOutputsAndCredit) {
  Rng rng(11);
  ccs::workloads::LayeredSpec spec;
  spec.layers = 2;
  spec.width = 2;
  const auto g = ccs::workloads::layered_homogeneous_dag(spec, rng);
  const auto p = partition::Partition::singletons(g);
  const std::int64_t m = 16;
  const auto policy = make_homogeneous_m_batch_policy(g, p, m);
  TokenSim sim(g, policy->buffer_caps());

  // Zero credit: even the source component cannot run.
  EXPECT_EQ(policy->next_component(TestView(sim, 0)), kNoComponent);
  // With m credits the source's component becomes schedulable.
  const std::int64_t c0 = policy->next_component(TestView(sim, m));
  ASSERT_NE(c0, kNoComponent);
  const StepPlan step = policy->next_step(TestView(sim, m));
  EXPECT_EQ(step.component, c0);
  // One execution = m local iterations of the component's members.
  EXPECT_EQ(step.firings.size(),
            static_cast<std::size_t>(m) * policy->members(c0).size());
}

TEST(HomogeneousPolicy, RejectsMultirateGraphs) {
  const auto g = ccs::workloads::hourglass_pipeline(8, 50, 2);
  EXPECT_THROW(make_homogeneous_m_batch_policy(g, partition::Partition::whole(g), 64),
               Error);
}

TEST(Wrappers, PipelineWrapperReproducesPolicyRunExactly) {
  // The wrapper is defined as "run the policy to completion"; verify the
  // equivalence independently by driving the policy by hand.
  const std::int64_t m = 256;
  const std::int64_t outputs = 600;
  Rng rng(99);
  const auto g = ccs::workloads::random_pipeline(12, 32, 200, 3, rng);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * m);
  const auto wrapper = dynamic_pipeline_schedule(g, dp.partition, m, outputs);

  const auto policy = make_pipeline_half_full_policy(g, dp.partition, m);
  TokenSim sim(g, policy->buffer_caps());
  TestView view(sim, policy->batch_credit(outputs));
  std::vector<sdf::NodeId> period;
  const auto execute = [&](const sdf::FiringProgram& firings) {
    firings.for_each_firing([&](sdf::NodeId v) {
      sim.fire(v);
      if (v == policy->source()) view.consume(1);
      period.push_back(v);
    });
  };
  while (sim.fired(policy->sink()) < outputs) {
    const StepPlan step = policy->next_step(view);
    ASSERT_FALSE(step.idle());
    execute(step.firings);
  }
  execute(policy->plan_drain(view));

  EXPECT_TRUE(sim.drained());
  EXPECT_EQ(period, wrapper.period.flatten());
  EXPECT_EQ(sim.fired(policy->source()), wrapper.inputs_per_period);
  EXPECT_EQ(sim.fired(policy->sink()), wrapper.outputs_per_period);
}

}  // namespace
}  // namespace ccs::schedule
