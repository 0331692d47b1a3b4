// core::Stream -- a true online streaming session.
//
// A Stream is the serving-side counterpart of a Planner plan: where the
// batch path materializes a whole firing list and replays it, a Stream
// executes *incrementally* against real arrivals. Items are pushed in as
// they arrive (push), the session advances one schedulable component
// execution at a time (step), and counters are polled live (stats) -- no
// output count is fixed in advance, which is exactly the regime of the
// paper's Section 3/4 dynamic rule. The decision rule is a pluggable
// schedule::OnlinePolicy resolved by name, and execution happens on a
// credit-metered runtime::Engine, so the source can never fire ahead of the
// input that actually arrived.
//
//   core::Planner planner(graph, opts);
//   core::Plan plan = planner.plan();
//   core::Stream stream(planner, plan);        // owns a cache of opts.cache
//   while (items_left) {
//     stream.push(arrivals());                 // admit what arrived
//     while (stream.step().progressed()) {}    // run whatever is schedulable
//   }
//   stream.drain();
//   std::cout << stream.stats().misses_per_output() << "\n";
//
// Driven with the policy's own batch allowance, a Stream reproduces the
// corresponding schedule::dynamic_*_schedule counters bit-identically (the
// golden equivalence gate in tests/core/stream_test.cc). Streams sharing
// one CacheSim model concurrent applications contending for a cache --
// core::Cluster multiplexes them (one worker = one shared cache).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/planner.h"
#include "iomodel/cache.h"
#include "iomodel/types.h"
#include "latency/cost_model.h"
#include "runtime/engine.h"
#include "runtime/run_result.h"
#include "schedule/online.h"
#include "sdf/graph.h"
#include "session/swap.h"

namespace ccs::core {

/// Streaming-session knobs.
struct StreamOptions {
  /// schedule::OnlineRegistry key, or "auto" (pipeline rule for pipelines,
  /// M-batch rule for homogeneous dags).
  std::string policy = "auto";

  /// Arrivals the session will hold un-consumed before push() starts
  /// refusing items (the backpressure signal). 0 = unbounded queue.
  std::int64_t max_pending_inputs = 0;

  /// Engine knobs. credit_input is forced on -- a Stream is always metered.
  runtime::EngineOptions engine;
};

/// What one step() did.
struct StepResult {
  /// Component the policy executed, or schedule::kNoComponent when the
  /// session was idle (every component blocked on arrivals or space).
  std::int64_t component = schedule::kNoComponent;

  /// Counters of exactly this step (empty when idle).
  runtime::RunResult run;

  bool progressed() const noexcept { return component != schedule::kNoComponent; }
};

/// One online streaming session: graph + partition + online policy + a
/// credit-metered engine. Self-contained (the graph is copied); not
/// thread-safe -- one session belongs to one driver (a core::Cluster worker
/// serializes access for the tenants sharing its cache).
///
/// The graph copy, the policy, stats() and steps() live as long as the
/// Stream. The engine (token rings, fired counts, credit, the cache binding)
/// is the one part a shared-cache session can release and attach again:
/// core::Cluster's swap tier releases it at swap-out and attaches a fresh one
/// at rehydration, so it builds each tenant's policy exactly once. Members
/// documented "Needs an engine" require has_engine().
class Stream {
 public:
  /// Standalone session owning a fresh fully-associative LRU cache of
  /// `cache` geometry. The policy is bound with M = cache.capacity_words.
  Stream(const sdf::SdfGraph& g, const partition::Partition& p,
         const iomodel::CacheConfig& cache, StreamOptions options = {},
         const schedule::OnlineRegistry* registry = nullptr);

  /// Shared-cache session (multi-tenant serving): executes on `cache`,
  /// which must outlive the stream. The policy's M is still `m` -- under
  /// contention a tenant sizes its buffers for its *share*, not for the
  /// whole cache.
  Stream(const sdf::SdfGraph& g, const partition::Partition& p, iomodel::CacheSim& cache,
         std::int64_t m, StreamOptions options = {},
         const schedule::OnlineRegistry* registry = nullptr);

  /// Shared-cache session without an engine yet: binds the policy to
  /// (g, p, m) -- so policy().buffer_caps() can price the session's layout
  /// before anything executes -- and waits for attach_engine().
  /// options.engine.address_base is ignored; attach_engine() supplies it.
  Stream(const sdf::SdfGraph& g, const partition::Partition& p, std::int64_t m,
         StreamOptions options = {}, const schedule::OnlineRegistry* registry = nullptr);

  /// Convenience: a session for a Planner plan, on the planner's cache
  /// geometry (the common "plan it, then serve it" path).
  Stream(const Planner& planner, const Plan& plan, StreamOptions options = {});

  ~Stream();  // out of line: members are incomplete types here

  /// Builds a fresh engine (no tokens, no credit, nothing fired) on `cache`,
  /// with the session's state and rings laid out from `address_base`; no
  /// cache traffic. Follow it with restore_state() to resume a released
  /// session. Requires a shared-cache session without an engine; `cache`
  /// must outlive the engine.
  void attach_engine(iomodel::CacheSim& cache, std::int64_t address_base);

  /// Frees the engine, keeping the graph, the policy, stats() and steps().
  /// Take save_state() first: the engine's state dies here. No cache
  /// traffic. Requires a shared-cache session with an engine.
  void release_engine();

  bool has_engine() const noexcept { return engine_ != nullptr; }

  /// Admits up to `items` arrivals, returning how many were accepted --
  /// fewer than `items` (the backpressure signal) when the pending queue
  /// would exceed StreamOptions::max_pending_inputs. Needs an engine.
  std::int64_t push(std::int64_t items);

  /// Arrivals admitted but not yet consumed by the source. Needs an engine.
  std::int64_t pending_inputs() const noexcept { return engine_->input_credit(); }

  /// True when push() would refuse at least one item. Needs an engine.
  bool backpressured() const noexcept {
    return options_.max_pending_inputs > 0 &&
           pending_inputs() >= options_.max_pending_inputs;
  }

  /// Runs the next schedulable component execution (the policy's unit of
  /// work), or reports idle. Counters in the result cover exactly this
  /// step; they are also accumulated into stats(). Needs an engine.
  StepResult step();

  /// Steps until idle; returns the counters accumulated across the burst.
  /// Needs an engine.
  runtime::RunResult run_until_idle();

  /// End of stream: aligns the source on a whole steady-state iteration
  /// (never beyond pending arrivals) and flushes every channel. Returns the
  /// drain's counters. Needs an engine.
  runtime::RunResult drain();

  /// Counters accumulated over the whole session so far.
  const runtime::RunResult& stats() const noexcept { return totals_; }

  /// Attaches a latency cost model: every subsequent progressing step() is
  /// priced (RunResult::cost = model cycles over the step's own counters)
  /// and recorded as one sample in RunResult::latency; drain() is priced
  /// but not sampled (a terminal flush is not a serving-latency event).
  /// Null (the default) leaves cost at 0 and the histogram empty, so
  /// model-free sessions stay bit-comparable to the batch golden paths.
  /// `model` must outlive the stream; it stays attached across
  /// release_engine()/attach_engine().
  void set_cost_model(const latency::CostModel* model) noexcept {
    cost_model_ = model;
  }
  const latency::CostModel* cost_model() const noexcept { return cost_model_; }

  /// Items consumed (source firings) and results produced (sink firings)
  /// over the whole session: stats().source_firings and
  /// stats().sink_firings, so they need no engine (the engine counts a
  /// graph's only source and only sink; with several it counts none).
  std::int64_t inputs_consumed() const noexcept { return totals_.source_firings; }
  std::int64_t outputs_produced() const noexcept { return totals_.sink_firings; }

  /// Component executions performed (progressing step() calls).
  std::int64_t steps() const noexcept { return steps_; }

  /// Live migration onto a different cache (core::Cluster moving this
  /// session to another worker's private L1): tokens, counters, and credit
  /// all survive; the working set does not, so the next steps pay real
  /// reload misses. Only valid for shared-cache sessions -- a session that
  /// owns its cache has nowhere else to go. `cache` must outlive the stream.
  /// Needs an engine.
  void migrate_cache(iomodel::CacheSim& cache);

  /// Address range of this session's state and channel rings (placement
  /// affinity probes rank workers by how much of it their cache holds).
  /// Needs an engine.
  iomodel::Region layout_span() const noexcept { return engine_->layout_span(); }

  /// Footprint observation for adaptive placement: the engine's layout
  /// geometry with the counter fields replaced by this session's *attributed*
  /// totals, so tenants sharing a worker cache never window each other's
  /// traffic. Needs an engine.
  runtime::FootprintSample footprint_sample() const noexcept;

  /// Captures the session's mutable state at a quiescent point (between
  /// steps): the engine's execution state, the stats() totals and the step
  /// count. The policy needs no saving: it plans every call from the view's
  /// live token counts, and the only count it carries across calls (its
  /// TokenSim scratch's fired totals) enters each limit as `fired + n`, so
  /// it plans identically whatever that count reads. The swap tier packs the
  /// snapshot into a session::SwapImage and calls release_engine(). Needs an
  /// engine.
  session::SessionSnapshot save_state() const;

  /// Restores a save_state() capture: into this session after
  /// release_engine() + attach_engine(), or into a freshly constructed twin
  /// (same graph, partition, m, and options). No cache traffic; after it,
  /// pushes and steps behave bit-identically to a session that never
  /// stopped. Needs an engine.
  void restore_state(const session::SessionSnapshot& state);

  const schedule::OnlinePolicy& policy() const noexcept { return *policy_; }
  const sdf::SdfGraph& graph() const noexcept { return graph_; }

  /// The cache the engine executes on. Needs an engine.
  iomodel::CacheSim& cache() noexcept { return *cache_; }

 private:
  /// schedule::EngineView over the metered engine.
  class EngineBackedView;

  /// Builds the engine and its view on `cache` at options_.engine.
  void build_engine(iomodel::CacheSim& cache);

  /// The engine, or a ContractViolation naming the missing attach.
  runtime::Engine& attached_engine() const;

  sdf::SdfGraph graph_;
  StreamOptions options_;
  std::unique_ptr<iomodel::CacheSim> owned_cache_;  ///< Null for shared-cache sessions.
  iomodel::CacheSim* cache_ = nullptr;              ///< Null without an engine.
  std::unique_ptr<schedule::OnlinePolicy> policy_;
  std::unique_ptr<runtime::Engine> engine_;
  std::unique_ptr<EngineBackedView> view_;
  const latency::CostModel* cost_model_ = nullptr;  ///< Not owned; may be null.
  runtime::RunResult totals_;
  std::int64_t steps_ = 0;
};

}  // namespace ccs::core
