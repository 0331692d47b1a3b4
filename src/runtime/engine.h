// Streaming execution engine over the simulated cache.
//
// The engine owns the memory layout (state regions and channel ring buffers)
// and executes module firings against a CacheSim, enforcing SDF semantics:
// a firing consumes in(u,v) tokens from every input channel, scans the
// module's state, and produces out(v,w) tokens on every output channel.
// Underflow/overflow throw ScheduleError -- a schedule that violates buffer
// bounds is a scheduler bug, not a runtime condition.
//
// The source module additionally streams words from an unbounded external
// input region and the sink streams words to an external output region
// (the paper's "designated channels" into and out of the application);
// these sequential streams cost ~1/B misses per word for *every* scheduler
// and never interfere with partitioning decisions.
//
// One driving mode: run(program, repeats) fires a sdf::FiringProgram --
// blocks of firings, each body run some number of times -- `repeats` times
// over. It is the one entry point for every plan: a schedule's period, an
// online step or drain, a deserialized or hand-built sequence (a flat
// sequence is a one-block program). It proves the whole run feasible before
// the first firing and then fires in flat order. Under EngineOptions::
// credit_input, push_input() meters the external input so the source can
// only fire against tokens that have actually arrived. fire() + take() is
// the per-firing rule run() is tested against.
//
// The proof replays each block's body once against token counters only
// (pure integer arithmetic, no memory traffic) and records, per edge it
// touches, the net change D, the lowest count right after a consumption
// and the highest right after a production. Repetition k of the body
// starts D*k tokens further along, so every bound is linear in k and the
// first and the last repetition decide all of them (docs/ARCHITECTURE.md,
// "Planning cost"). An infeasible run throws the ScheduleError a
// per-firing check would, naming the same first offending firing, before
// any firing executes.
//
// Hot path: construction precomputes one FiringPlan per module (flattened
// input/output port spans, the state region, source/sink flags), so a firing
// never re-derives edge lists or rates from the graph. State scans and
// channel ring operations are issued as bulk block-granular cache
// transactions (at most two per channel operation).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "iomodel/cache.h"
#include "iomodel/layout.h"
#include "runtime/channel.h"
#include "runtime/run_result.h"
#include "sdf/firing_program.h"
#include "sdf/graph.h"

namespace ccs::runtime {

/// Engine knobs.
struct EngineOptions {
  /// Model external input/output streams of the source/sink (1 word per
  /// firing each). Disable to measure pure internal traffic.
  bool model_external_io = true;

  /// Attribute per-module miss deltas in RunResult::node_misses. Costs one
  /// stats snapshot per firing; disable for the biggest sweeps.
  bool per_node_attribution = true;

  /// Block-align every channel buffer instead of packing them. Packing is
  /// the default because the paper's sum(minBuf) = O(state) assumption is
  /// about tokens, not blocks; aligning one-word buffers inflates their
  /// footprint by a factor of B. Exposed for the E15 ablation.
  bool block_align_buffers = false;

  /// Meter the external input: the source may only fire against credit
  /// granted through push_input() (one credit = one source firing), so an
  /// online driver can model arrivals and starvation. Off (the default),
  /// the external input is unbounded, as the batch schedulers assume.
  bool credit_input = false;

  /// Word address where this engine's state/buffer layout begins (rounded
  /// up to a block boundary). Engines sharing one cache (multi-tenant
  /// serving) must use disjoint bases so their blocks *contend* rather than
  /// silently alias; the external stream regions are offset by the base
  /// too. Keep bases well below 2^40 (the external-stream bands).
  std::int64_t address_base = 0;
};

/// One working-set observation of an engine, polled by adaptive placement
/// (core::Cluster feeds these to placement::FootprintEstimator). The layout
/// fields are structural; the counters are lifetime totals the consumer
/// windows itself.
struct FootprintSample {
  std::int64_t layout_words = 0;  ///< State + channel rings (footprint upper bound).
  std::int64_t state_words = 0;   ///< Module-state share of the layout.
  std::int64_t accesses = 0;      ///< Lifetime cache accesses attributed to this engine.
  std::int64_t misses = 0;        ///< Lifetime cache misses attributed to this engine.
};

/// The complete mutable execution state of an Engine, captured at a
/// quiescent point (a take()/run() boundary) so an idle session's engine
/// can be destroyed and later rebuilt bit-identically — the swap tier
/// (session::SwapImage) packs this into a compact byte image.
///
/// What is deliberately NOT here: the memory layout and firing plans (pure
/// functions of graph + buffer_caps + options, recomputed by the Engine
/// constructor without any cache traffic) and the simulated cache contents
/// (the cache keeps or evicts the session's blocks on its own — exactly as
/// it would had the host objects stayed alive, since an idle engine issues
/// no accesses either way). Delta baselines are re-anchored on restore,
/// which is lossless at a quiescent point because every delta is zero there.
struct EngineState {
  std::vector<std::int64_t> channel_heads;  ///< Ring cursor per edge.
  std::vector<std::int64_t> channel_sizes;  ///< Queued tokens per edge.
  std::vector<std::int64_t> fired;          ///< Lifetime firings per node.
  std::int64_t input_credit = 0;            ///< Remaining source credit (credit mode).
  iomodel::Addr external_in_cursor = 0;
  iomodel::Addr external_out_cursor = 0;
  std::int64_t source_firings = 0;
  std::int64_t sink_firings = 0;
  std::int64_t total_firings = 0;
  std::int64_t state_misses = 0;    ///< Lifetime classified-miss counters.
  std::int64_t channel_misses = 0;
  std::int64_t io_misses = 0;

  friend bool operator==(const EngineState&, const EngineState&) = default;
};

/// The layout footprint (state + channel rings, in words, including
/// block-alignment padding) an Engine for (g, buffer_caps) would occupy,
/// computed WITHOUT constructing an engine or touching any cache -- pure
/// integer arithmetic over the same MemoryLayout allocation sequence the
/// constructor performs from a block-aligned base. Admission control
/// (session::AdmissionPolicy "bounded-memory") prices a session before
/// deciding whether to build it.
std::int64_t layout_footprint_words(const sdf::SdfGraph& g,
                                    std::span<const std::int64_t> buffer_caps,
                                    std::int64_t block_words,
                                    bool block_align_buffers = false);

/// Executes firing sequences for one graph + buffer-capacity assignment.
class Engine {
 public:
  /// `buffer_caps[e]` is the ring capacity (in tokens) of edge e; it must be
  /// at least max(out_rate, in_rate) of that edge. The engine lays out all
  /// state and buffers in the simulated address space. `cache` must outlive
  /// the engine.
  Engine(const sdf::SdfGraph& g, std::vector<std::int64_t> buffer_caps,
         iomodel::CacheSim& cache, EngineOptions options = {});

  /// Sentinel input_credit() when the external input is not metered.
  static constexpr std::int64_t kUnlimitedCredit =
      std::numeric_limits<std::int64_t>::max();

  /// Executes one firing. Throws ScheduleError (before any memory traffic
  /// or token movement) if v cannot fire.
  void fire(sdf::NodeId v);

  /// Grants `count` further source firings' worth of external input
  /// (requires EngineOptions::credit_input). Saturates at kUnlimitedCredit.
  void push_input(std::int64_t count);

  /// Source firings the external input can still cover: granted minus
  /// consumed credit, or kUnlimitedCredit when the input is not metered.
  std::int64_t input_credit() const noexcept {
    return options_.credit_input ? input_credit_ : kUnlimitedCredit;
  }

  /// Fires `program` `repeats` times in flat order and returns the counters
  /// accumulated since the previous take (or construction), per-node
  /// attribution included. The whole run is proven feasible first (each
  /// block body replayed once, see the file comment); an infeasible run
  /// throws ScheduleError naming the first offending firing -- a blocked
  /// channel, or under metered input a source firing beyond the granted
  /// credit -- with no tokens moved and no memory traffic. `repeats == 0`
  /// or an empty program fires nothing and returns take().
  RunResult run(const sdf::FiringProgram& program, std::int64_t repeats = 1);

  /// Counters accumulated since the last take()/run() boundary, then
  /// re-anchors the baseline so the next take reports only new work. run()
  /// is equivalent to validate + fire-all + take().
  RunResult take();

  /// Re-anchors only the cache-statistics baseline at the cache's current
  /// counters. On a cache shared between engines (multi-tenant serving),
  /// call this before each run/take window so traffic other engines
  /// generated in between is not attributed to this one; firing and
  /// classified-miss baselines are engine-local and unaffected.
  void resync_cache_baseline() { last_stats_ = cache_->stats(); }

  /// Tokens currently queued on edge e.
  std::int64_t tokens(sdf::EdgeId e) const {
    return channels_[static_cast<std::size_t>(e)].size();
  }

  /// Free slots on edge e.
  std::int64_t space(sdf::EdgeId e) const {
    return channels_[static_cast<std::size_t>(e)].space();
  }

  /// Lifetime firing count of module v.
  std::int64_t fired(sdf::NodeId v) const {
    return fired_[static_cast<std::size_t>(v)];
  }

  /// Live migration: rebinds the engine to a different cache of the same
  /// block size WITHOUT touching execution state. Tokens, firing counters,
  /// classified-miss totals, input credit, and external cursors all
  /// survive; only the cache-statistics delta baseline is re-anchored on
  /// the new cache. The new cache does not hold this engine's working set,
  /// so the next firings pay real reload misses -- the multicore migration
  /// cost core::Cluster models. Call between run/take windows, never
  /// mid-run.
  void migrate_cache(iomodel::CacheSim& cache);

  /// Captures the complete mutable execution state. Must be called at a
  /// quiescent point: every counter since the last take()/run() must have
  /// been taken (engine-local deltas are asserted zero), so re-anchoring
  /// the baselines on restore loses nothing.
  EngineState save_state() const;

  /// Restores a state captured by save_state() from an engine built for
  /// the same graph, buffer capacities, and options (vector lengths are
  /// validated; a mismatch throws ScheduleError). Issues NO cache traffic
  /// and re-anchors all delta baselines at the restored lifetime counters
  /// and the bound cache's current statistics — the swap-tier rehydration
  /// contract: a restored engine's subsequent firings are bit-identical to
  /// one that was never torn down.
  void restore_state(const EngineState& state);

  const sdf::SdfGraph& graph() const noexcept { return *graph_; }
  iomodel::CacheSim& cache() noexcept { return *cache_; }

  /// Footprint snapshot for adaptive placement: the layout geometry plus the
  /// cache's lifetime counters. On a *dedicated* cache the counters are this
  /// engine's own traffic; on a shared cache the caller must substitute
  /// per-tenant attributed totals (core::Stream::footprint_sample does).
  FootprintSample footprint_sample() const noexcept;

  /// The address range holding this engine's state and channel rings (from
  /// EngineOptions::address_base to the layout cursor; excludes the
  /// external-stream bands). Placement-affinity probes rank workers by how
  /// much of this span their private cache holds.
  iomodel::Region layout_span() const noexcept {
    return iomodel::Region{options_.address_base,
                           layout_.footprint() - options_.address_base};
  }

  /// Heavy cross-consistency walk of the execution state: every channel's
  /// token count within [0, capacity], the input credit non-negative (or
  /// the unlimited sentinel), every firing plan's port spans within the
  /// flattened port arrays with each port naming a real channel, and the
  /// firing/miss tallies internally consistent. Throws ContractViolation on
  /// the first inconsistency. Audit builds (-DCCS_AUDIT=ON) run it at
  /// run()/take() boundaries and sampled firing boundaries; tests may call
  /// it in any build.
  void audit_invariants() const;

 private:
  /// One side of a module's channel connections, flattened for the hot
  /// loop. `channel` doubles as the EdgeId (channels_ is indexed by edge).
  struct Port {
    std::int32_t channel;  ///< Index into channels_ == sdf::EdgeId.
    std::int64_t rate;     ///< Tokens moved per firing.
  };

  /// Everything a firing needs, precomputed at construction. Ports live in
  /// the shared in_ports_/out_ports_ arrays; each plan owns a span of them.
  struct FiringPlan {
    std::int32_t in_begin = 0, in_end = 0;    ///< [begin, end) into in_ports_.
    std::int32_t out_begin = 0, out_end = 0;  ///< [begin, end) into out_ports_.
    iomodel::Region state;
    bool is_source = false;
    bool is_sink = false;
  };

  /// Shared feasibility scan: returns the first port of v that cannot fire
  /// given per-channel token counts `size_of(channel)`, or nullptr if all
  /// can; sets `underflow` to distinguish the failure direction. The single
  /// home of the firing-feasibility rule -- fire and run's rejection
  /// replay both go through it.
  template <typename SizeOf>
  const Port* first_blocked_port(sdf::NodeId v, SizeOf&& size_of, bool& underflow) const {
    const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
    for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
      const Port& p = in_ports_[static_cast<std::size_t>(i)];
      if (size_of(p.channel) < p.rate) {
        underflow = true;
        return &p;
      }
    }
    for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
      const Port& p = out_ports_[static_cast<std::size_t>(i)];
      if (channels_[static_cast<std::size_t>(p.channel)].capacity() - size_of(p.channel) <
          p.rate) {
        underflow = false;
        return &p;
      }
    }
    return nullptr;
  }

  /// Builds the ScheduleError for a blocked port found by first_blocked_port.
  [[noreturn]] void throw_blocked(sdf::NodeId v, const Port& p, bool underflow) const;

  /// Wide enough for (repeat count) x (token count) without overflow.
  using Wide = __int128;

  /// What running a firing sequence once does to the token counts, relative
  /// to where it starts: per touched edge the net change, the lowest count
  /// right after a consumption (kNoLow if none) and the highest right after
  /// a production (kNoHigh if none), plus the source firings it spends.
  /// Values are clamped to +-2^63: beyond that a count has left [0, cap]
  /// whatever the start, so the clamp decides nothing differently.
  struct Reach {
    std::vector<Wide> net, low, high;  ///< Per edge; valid where touched.
    std::vector<std::uint8_t> seen;    ///< Per edge: listed in `touched`.
    std::vector<sdf::EdgeId> touched;
    Wide sources = 0;
    void reset(std::size_t edges);     ///< Empties it (sizes it on first use).
    void touch(sdf::EdgeId e);         ///< Lists e with no change yet.
  };

  /// Replays `body` once into `out` (range-checks every node id).
  void measure(std::span<const sdf::NodeId> body, Reach& out) const;

  /// Folds `repeats` runs of `body` into `into`, as if appended to it.
  static void fold(const Reach& body, std::int64_t repeats, Reach& into);

  /// True iff repetition k of a sequence with reach `r` fits: started from
  /// start(e) + k * net(e) tokens (credit - k * sources credit), every count
  /// stays in [0, capacity] and every source firing is covered.
  template <typename Start>
  bool fits(const Reach& r, Wide k, Start&& start, Wide credit) const;

  /// The first of `repeats` repetitions that does not fit, or `repeats`:
  /// the ends decide whether all fit, bisection finds the first that
  /// does not.
  template <typename Start>
  std::int64_t first_misfit(const Reach& r, std::int64_t repeats, Start&& start,
                            Wide credit) const;

  /// Throws the error of the first infeasible firing of `program`, which
  /// round `round` of a run holds: finds the first block repetition of that
  /// round that does not fit and replays it firing by firing.
  [[noreturn]] void reject(const sdf::FiringProgram& program, std::int64_t round);

  /// Executes one pre-validated firing.
  void fire_unchecked(sdf::NodeId v);

  /// Re-anchors every last_* baseline at the current lifetime counters.
  void advance_baselines();

  const sdf::SdfGraph* graph_;
  iomodel::CacheSim* cache_;
  EngineOptions options_;
  iomodel::MemoryLayout layout_;
  std::vector<Channel> channels_;     // per edge
  std::vector<FiringPlan> plans_;     // per node
  std::vector<Port> in_ports_;        // all input ports, grouped by node
  std::vector<Port> out_ports_;       // all output ports, grouped by node
  std::vector<std::int64_t> fired_;   // per node, lifetime
  Reach block_reach_, program_reach_;  // run()'s proof scratch
  std::vector<std::int64_t> sizes_scratch_;  // per edge, for reject()
  std::int64_t state_words_ = 0;

  sdf::NodeId source_ = sdf::kInvalidNode;
  sdf::NodeId sink_ = sdf::kInvalidNode;
  std::int64_t input_credit_ = 0;  ///< Remaining source firings (credit mode).
  iomodel::Addr external_in_cursor_ = 0;
  iomodel::Addr external_out_cursor_ = 0;
  iomodel::Region external_in_;
  iomodel::Region external_out_;

  // Baseline counters for delta reporting in run().
  iomodel::CacheStats last_stats_;
  std::int64_t last_firings_ = 0;
  std::int64_t last_source_firings_ = 0;
  std::int64_t last_sink_firings_ = 0;
  std::int64_t source_firings_ = 0;
  std::int64_t sink_firings_ = 0;
  std::int64_t total_firings_ = 0;
  std::vector<std::int64_t> node_miss_base_;

  // Classified miss counters (lifetime + last-run baselines).
  std::int64_t state_misses_ = 0;
  std::int64_t channel_misses_ = 0;
  std::int64_t io_misses_ = 0;
  std::int64_t last_state_misses_ = 0;
  std::int64_t last_channel_misses_ = 0;
  std::int64_t last_io_misses_ = 0;

  /// Audit-mode sampling counter: a full audit_invariants() walk per firing
  /// would turn O(n) runs into O(n^2), so audit builds walk every 64th
  /// firing plus every run/take boundary. Unused outside audit builds.
  [[maybe_unused]] std::int64_t audit_tick_ = 0;
};

}  // namespace ccs::runtime
