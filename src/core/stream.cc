#include "core/stream.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"

namespace ccs::core {

class Stream::EngineBackedView final : public schedule::EngineView {
 public:
  explicit EngineBackedView(const runtime::Engine& engine) : engine_(&engine) {}

  std::int64_t tokens(sdf::EdgeId e) const override { return engine_->tokens(e); }
  std::int64_t fired(sdf::NodeId v) const override { return engine_->fired(v); }
  std::int64_t input_credit() const override { return engine_->input_credit(); }

 private:
  const runtime::Engine* engine_;
};

Stream::Stream(const sdf::SdfGraph& g, const partition::Partition& p, std::int64_t m,
               StreamOptions options, const schedule::OnlineRegistry* registry)
    : graph_(g), options_(std::move(options)) {
  CCS_EXPECTS(options_.max_pending_inputs >= 0, "negative backpressure bound");
  const schedule::OnlineRegistry& reg =
      registry != nullptr ? *registry : schedule::OnlineRegistry::global();
  schedule::OnlineContext ctx;
  ctx.m = m;
  policy_ = reg.build(options_.policy, graph_, p, ctx);
  options_.engine.credit_input = true;  // a Stream is always metered
}

Stream::Stream(const sdf::SdfGraph& g, const partition::Partition& p,
               const iomodel::CacheConfig& cache, StreamOptions options,
               const schedule::OnlineRegistry* registry)
    : Stream(g, p, (validate_cache_geometry(cache), cache.capacity_words), std::move(options),
             registry) {
  owned_cache_ = std::make_unique<iomodel::LruCache>(cache);
  build_engine(*owned_cache_);
}

Stream::Stream(const sdf::SdfGraph& g, const partition::Partition& p,
               iomodel::CacheSim& cache, std::int64_t m, StreamOptions options,
               const schedule::OnlineRegistry* registry)
    : Stream(g, p, m, std::move(options), registry) {
  build_engine(cache);
}

Stream::Stream(const Planner& planner, const Plan& plan, StreamOptions options)
    : Stream(planner.graph(), plan.partition, planner.options().cache,
             std::move(options)) {}

Stream::~Stream() = default;

void Stream::build_engine(iomodel::CacheSim& cache) {
  engine_ = std::make_unique<runtime::Engine>(graph_, policy_->buffer_caps(), cache,
                                              options_.engine);
  view_ = std::make_unique<EngineBackedView>(*engine_);
  cache_ = &cache;
}

void Stream::attach_engine(iomodel::CacheSim& cache, std::int64_t address_base) {
  CCS_EXPECTS(owned_cache_ == nullptr, "a session that owns its cache keeps its engine");
  CCS_EXPECTS(engine_ == nullptr, "session already has an engine");
  options_.engine.address_base = address_base;
  build_engine(cache);
}

void Stream::release_engine() {
  CCS_EXPECTS(owned_cache_ == nullptr, "a session that owns its cache keeps its engine");
  CCS_EXPECTS(engine_ != nullptr, "session has no engine to release");
  view_.reset();
  engine_.reset();
  cache_ = nullptr;
}

runtime::Engine& Stream::attached_engine() const {
  CCS_EXPECTS(engine_ != nullptr, "session has no engine (released or never attached)");
  return *engine_;
}

std::int64_t Stream::push(std::int64_t items) {
  runtime::Engine& engine = attached_engine();
  CCS_EXPECTS(items >= 0, "cannot push a negative number of items");
  std::int64_t accepted = items;
  if (options_.max_pending_inputs > 0) {
    accepted = std::min(accepted,
                        std::max<std::int64_t>(
                            0, options_.max_pending_inputs - engine.input_credit()));
  }
  engine.push_input(accepted);
  return accepted;
}

StepResult Stream::step() {
  runtime::Engine& engine = attached_engine();
  StepResult result;
  const schedule::StepPlan& plan = policy_->next_step(*view_);
  if (plan.idle()) return result;
  result.component = plan.component;
  // On a shared cache another tenant may have run since our last step; its
  // traffic must not be attributed to this session's delta window.
  engine.resync_cache_baseline();
  result.run = engine.run(plan.firings);
  if (cost_model_ != nullptr) {
    // Price the step's own delta window and record it as one latency
    // sample; totals_ then accumulates both through RunResult::operator+=.
    result.run.cost = cost_model_->step_cost(result.run.firings, result.run.cache);
    result.run.latency.record(result.run.cost);
  }
  totals_ += result.run;
  ++steps_;
  return result;
}

runtime::RunResult Stream::run_until_idle() {
  runtime::RunResult total;
  for (StepResult r = step(); r.progressed(); r = step()) total += r.run;
  return total;
}

runtime::RunResult Stream::drain() {
  runtime::Engine& engine = attached_engine();
  const sdf::FiringProgram plan = policy_->plan_drain(*view_);
  engine.resync_cache_baseline();
  runtime::RunResult result = engine.run(plan);
  if (cost_model_ != nullptr) {
    // Priced so drain work advances a worker's virtual clock, but NOT
    // recorded as a histogram sample -- a terminal flush is not a serving
    // step, and one giant sample would distort the tail percentiles.
    result.cost = cost_model_->step_cost(result.firings, result.cache);
  }
  totals_ += result;
  return result;
}

void Stream::migrate_cache(iomodel::CacheSim& cache) {
  CCS_EXPECTS(owned_cache_ == nullptr,
              "cannot migrate a session that owns its cache (standalone streams "
              "are single-placement by construction)");
  attached_engine().migrate_cache(cache);
  cache_ = &cache;
}

session::SessionSnapshot Stream::save_state() const {
  session::SessionSnapshot state;
  state.engine = attached_engine().save_state();
  state.totals = totals_;
  state.steps = steps_;
  return state;
}

void Stream::restore_state(const session::SessionSnapshot& state) {
  attached_engine().restore_state(state.engine);
  totals_ = state.totals;
  steps_ = state.steps;
}

runtime::FootprintSample Stream::footprint_sample() const noexcept {
  runtime::FootprintSample sample = engine_->footprint_sample();
  sample.accesses = totals_.cache.accesses;
  sample.misses = totals_.cache.misses;
  return sample;
}

}  // namespace ccs::core
