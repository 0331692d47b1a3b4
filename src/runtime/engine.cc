#include "runtime/engine.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::runtime {

namespace {

// External streams live far above anything MemoryLayout hands out, so they
// can grow without bound and never collide with state/buffer regions.
constexpr iomodel::Addr kExternalInBase = iomodel::Addr{1} << 40;
constexpr iomodel::Addr kExternalOutBase = iomodel::Addr{1} << 41;

// Reach bounds (see Engine::Reach). A count 2^63 away from where it started
// has left [0, capacity] whatever the start, so values are clamped there and
// the products of the proof (a repeat count times a clamped value, plus a
// few clamped terms) stay below 2^127. An edge nothing consumes from never
// falls (net >= 0), and one nothing produces onto never rises, so the
// sentinels, one step beyond the clamp, never fail a bound.
using Wide = __int128;
constexpr Wide kClamp = Wide{1} << 63;
constexpr Wide kNoLow = kClamp * 2;
constexpr Wide kNoHigh = -kNoLow;

Wide clamp(Wide x) { return std::clamp(x, -kClamp, kClamp); }

}  // namespace

std::int64_t layout_footprint_words(const sdf::SdfGraph& g,
                                    std::span<const std::int64_t> buffer_caps,
                                    std::int64_t block_words,
                                    bool block_align_buffers) {
  CCS_EXPECTS(buffer_caps.size() == static_cast<std::size_t>(g.edge_count()),
              "one buffer capacity per edge required");
  // Mirrors the constructor's allocation sequence exactly: state regions
  // block-aligned, channel rings packed unless block_align_buffers.
  iomodel::MemoryLayout layout(block_words, 0);
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    layout.allocate(g.node(v).state, "state");
  }
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    layout.allocate(buffer_caps[static_cast<std::size_t>(e)], "buf", block_align_buffers);
  }
  return layout.footprint();
}

Engine::Engine(const sdf::SdfGraph& g, std::vector<std::int64_t> buffer_caps,
               iomodel::CacheSim& cache, EngineOptions options)
    : graph_(&g),
      cache_(&cache),
      options_(options),
      layout_(cache.config().block_words, options.address_base) {
  CCS_EXPECTS(g.node_count() > 0, "cannot build an engine for an empty graph");
  CCS_EXPECTS(options_.address_base >= 0 && options_.address_base < kExternalInBase,
              "address base must stay below the external-stream bands");
  CCS_EXPECTS(buffer_caps.size() == static_cast<std::size_t>(g.edge_count()),
              "one buffer capacity per edge required");

  std::vector<iomodel::Region> state;
  state.reserve(static_cast<std::size_t>(g.node_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    state.push_back(layout_.allocate(g.node(v).state, "state:" + g.node(v).name));
    state_words_ += g.node(v).state;
  }
  channels_.reserve(static_cast<std::size_t>(g.edge_count()));
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    const std::int64_t cap = buffer_caps[static_cast<std::size_t>(e)];
    if (cap < std::max(edge.out_rate, edge.in_rate)) {
      throw ScheduleError("buffer on " + g.node(edge.src).name + " -> " +
                          g.node(edge.dst).name + " (capacity " + std::to_string(cap) +
                          ") cannot hold one burst");
    }
    // Buffers are packed (not block-aligned) by default: dozens of one-word
    // minimal channels must not consume a cache block each, or the paper's
    // sum(minBuf) = O(state) assumption silently becomes O(edges * B).
    channels_.emplace_back(
        layout_.allocate(cap, "buf:" + g.node(edge.src).name + ">" + g.node(edge.dst).name,
                         options_.block_align_buffers),
        cap);
  }
  // The whole state/buffer layout must sit below the external-stream bands,
  // or a co-resident engine's regions would silently alias another's
  // external streams instead of contending for blocks.
  CCS_EXPECTS(layout_.footprint() <= kExternalInBase,
              "state/buffer layout overflows into the external-stream bands "
              "(address base too high for this graph's footprint)");
  fired_.assign(static_cast<std::size_t>(g.node_count()), 0);
  node_miss_base_.assign(static_cast<std::size_t>(g.node_count()), 0);
  sizes_scratch_.assign(static_cast<std::size_t>(g.edge_count()), 0);

  const auto sources = g.sources();
  const auto sinks = g.sinks();
  if (sources.size() == 1) source_ = sources.front();
  if (sinks.size() == 1) sink_ = sinks.front();
  external_in_ = iomodel::Region{kExternalInBase + options_.address_base, 0};
  external_out_ = iomodel::Region{kExternalOutBase + options_.address_base, 0};

  // Precompute one firing plan per module so fire() never walks the graph.
  plans_.resize(static_cast<std::size_t>(g.node_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
    plan.in_begin = static_cast<std::int32_t>(in_ports_.size());
    for (const sdf::EdgeId e : g.in_edges(v)) {
      in_ports_.push_back(Port{e, g.edge(e).in_rate});
    }
    plan.in_end = static_cast<std::int32_t>(in_ports_.size());
    plan.out_begin = static_cast<std::int32_t>(out_ports_.size());
    for (const sdf::EdgeId e : g.out_edges(v)) {
      out_ports_.push_back(Port{e, g.edge(e).out_rate});
    }
    plan.out_end = static_cast<std::int32_t>(out_ports_.size());
    plan.state = state[static_cast<std::size_t>(v)];
    plan.is_source = v == source_;
    plan.is_sink = v == sink_;
  }
}

void Engine::push_input(std::int64_t count) {
  CCS_EXPECTS(options_.credit_input,
              "push_input requires EngineOptions::credit_input");
  CCS_EXPECTS(count >= 0, "input credit must be non-negative");
  input_credit_ = input_credit_ > kUnlimitedCredit - count ? kUnlimitedCredit
                                                           : input_credit_ + count;
}

void Engine::throw_blocked(sdf::NodeId v, const Port& p, bool underflow) const {
  throw ScheduleError("firing '" + graph_->node(v).name + "' would " +
                      (underflow ? "underflow" : "overflow") + " channel " +
                      std::to_string(p.channel));
}

void Engine::Reach::reset(std::size_t edges) {
  if (seen.size() != edges) {
    net.assign(edges, 0);
    low.assign(edges, 0);
    high.assign(edges, 0);
    seen.assign(edges, 0);
  } else {
    for (const sdf::EdgeId e : touched) seen[static_cast<std::size_t>(e)] = 0;
  }
  touched.clear();
  sources = 0;
}

void Engine::Reach::touch(sdf::EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  seen[i] = 1;
  net[i] = 0;
  low[i] = kNoLow;
  high[i] = kNoHigh;
  touched.push_back(e);
}

void Engine::measure(std::span<const sdf::NodeId> body, Reach& out) const {
  out.reset(channels_.size());
  for (const sdf::NodeId v : body) {
    CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
    const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
    if (plan.is_source) ++out.sources;
    for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
      const Port& p = in_ports_[static_cast<std::size_t>(i)];
      const auto e = static_cast<std::size_t>(p.channel);
      if (out.seen[e] == 0) out.touch(p.channel);
      out.net[e] -= p.rate;
      out.low[e] = std::min(out.low[e], out.net[e]);
    }
    for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
      const Port& p = out_ports_[static_cast<std::size_t>(i)];
      const auto e = static_cast<std::size_t>(p.channel);
      if (out.seen[e] == 0) out.touch(p.channel);
      out.net[e] += p.rate;
      out.high[e] = std::max(out.high[e], out.net[e]);
    }
  }
  for (const sdf::EdgeId edge : out.touched) {
    const auto e = static_cast<std::size_t>(edge);
    out.net[e] = clamp(out.net[e]);
    if (out.low[e] != kNoLow) out.low[e] = clamp(out.low[e]);
    if (out.high[e] != kNoHigh) out.high[e] = clamp(out.high[e]);
  }
}

void Engine::fold(const Reach& body, std::int64_t repeats, Reach& into) {
  // Repetition k of the body starts k * net further along, so over all k
  // the lowest count is the first or the last repetition's low, and the
  // highest likewise.
  const Wide last = repeats - 1;
  into.sources = clamp(into.sources + repeats * body.sources);
  for (const sdf::EdgeId edge : body.touched) {
    const auto e = static_cast<std::size_t>(edge);
    if (into.seen[e] == 0) into.touch(edge);
    const Wide start = into.net[e];
    const Wide drift = last * body.net[e];
    if (body.low[e] != kNoLow) {
      into.low[e] = std::min(into.low[e], clamp(start + body.low[e] + std::min<Wide>(drift, 0)));
    }
    if (body.high[e] != kNoHigh) {
      into.high[e] =
          std::max(into.high[e], clamp(start + body.high[e] + std::max<Wide>(drift, 0)));
    }
    into.net[e] = clamp(start + repeats * body.net[e]);
  }
}

template <typename Start>
bool Engine::fits(const Reach& r, Wide k, Start&& start, Wide credit) const {
  // Under metered input the last source firing of repetition k needs one
  // credit left after (k + 1) * sources - 1 others.
  if (options_.credit_input && (k + 1) * r.sources > credit) return false;
  for (const sdf::EdgeId edge : r.touched) {
    const auto e = static_cast<std::size_t>(edge);
    const Wide at = start(edge) + k * r.net[e];
    if (at + r.low[e] < 0 || at + r.high[e] > channels_[e].capacity()) return false;
  }
  return true;
}

template <typename Start>
std::int64_t Engine::first_misfit(const Reach& r, std::int64_t repeats, Start&& start,
                                  Wide credit) const {
  // Each bound is linear in k: the first and the last repetition decide.
  if (!fits(r, 0, start, credit)) return 0;
  if (repeats == 1 || fits(r, repeats - 1, start, credit)) return repeats;
  // Every bound that holds at k = 0 and fails later tightens with k, so the
  // misfits form a suffix: bisect for its first repetition.
  std::int64_t fit = 0;
  std::int64_t misfit = repeats - 1;
  while (misfit - fit > 1) {
    const std::int64_t mid = fit + (misfit - fit) / 2;
    (fits(r, mid, start, credit) ? fit : misfit) = mid;
  }
  return misfit;
}

void Engine::reject(const sdf::FiringProgram& program, std::int64_t round) {
  for (std::size_t e = 0; e < channels_.size(); ++e) sizes_scratch_[e] = channels_[e].size();
  std::int64_t credit = input_credit_;
  const auto at = [this](std::int32_t e) { return sizes_scratch_[static_cast<std::size_t>(e)]; };
  // Moves past k repetitions that fit: each leaves a real, in-range state.
  const auto skip = [&](const Reach& r, std::int64_t k) {
    for (const sdf::EdgeId e : r.touched) {
      sizes_scratch_[static_cast<std::size_t>(e)] +=
          static_cast<std::int64_t>(k * r.net[static_cast<std::size_t>(e)]);
    }
    if (options_.credit_input) credit -= static_cast<std::int64_t>(k * r.sources);
  };
  skip(program_reach_, round);
  for (const sdf::FiringProgram::Block& block : program.blocks()) {
    const std::span<const sdf::NodeId> body = program.body(block);
    measure(body, block_reach_);
    const std::int64_t k = first_misfit(block_reach_, block.repeats, at, credit);
    skip(block_reach_, k);
    if (k == block.repeats) continue;
    // Repetition k of this block holds the first infeasible firing: replay
    // it with the per-firing rule for fire()'s own error.
    for (const sdf::NodeId v : body) {
      if (options_.credit_input && v == source_ && credit-- <= 0) {
        throw ScheduleError("firing '" + graph_->node(v).name +
                            "' exceeds the granted external input credit");
      }
      bool underflow = false;
      if (const Port* p = first_blocked_port(v, at, underflow)) throw_blocked(v, *p, underflow);
      const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
      for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
        const Port& p = in_ports_[static_cast<std::size_t>(i)];
        sizes_scratch_[static_cast<std::size_t>(p.channel)] -= p.rate;
      }
      for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
        const Port& p = out_ports_[static_cast<std::size_t>(i)];
        sizes_scratch_[static_cast<std::size_t>(p.channel)] += p.rate;
      }
    }
    CCS_CHECK(false, "a repetition that does not fit blocks one of its firings");
  }
  CCS_CHECK(false, "a run that does not fit fails in one of its blocks");
}

void Engine::fire(sdf::NodeId v) {
  CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
  if (options_.credit_input && v == source_ && input_credit_ <= 0) {
    throw ScheduleError("firing '" + graph_->node(v).name +
                        "' exceeds the granted external input credit");
  }
  // Validate both directions before any memory traffic so a throwing fire
  // leaves token counts unchanged.
  bool underflow = false;
  const auto live = [this](std::int32_t ch) {
    return channels_[static_cast<std::size_t>(ch)].size();
  };
  if (const Port* p = first_blocked_port(v, live, underflow)) {
    throw_blocked(v, *p, underflow);
  }
  fire_unchecked(v);
}

void Engine::fire_unchecked(sdf::NodeId v) {
  const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
  // One virtual stats() call per firing: the reference tracks the live
  // counters, so the per-phase snapshots below are plain loads.
  const iomodel::CacheStats& stats = cache_->stats();
  const std::int64_t miss_before = stats.misses;

  // Consume inputs, then execute (scan state), then produce outputs --
  // the natural data flow of a filter body. Phase boundaries snapshot the
  // miss counter so RunResult can break misses down by cause.
  for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
    const Port& p = in_ports_[static_cast<std::size_t>(i)];
    channels_[static_cast<std::size_t>(p.channel)].pop(p.rate, *cache_);
  }
  const std::int64_t after_pops = stats.misses;
  if (options_.model_external_io && plan.is_source) {
    cache_->access(external_in_.base + external_in_cursor_++, iomodel::AccessMode::kRead);
  }
  const std::int64_t after_in = stats.misses;
  // State regions are block-aligned, so the span touches exactly
  // ceil(state/B) blocks in one bulk transaction.
  if (plan.state.words > 0) {
    cache_->access_span(plan.state.base, plan.state.words, iomodel::AccessMode::kRead);
  }
  const std::int64_t after_state = stats.misses;
  for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
    const Port& p = out_ports_[static_cast<std::size_t>(i)];
    channels_[static_cast<std::size_t>(p.channel)].push(p.rate, *cache_);
  }
  const std::int64_t after_pushes = stats.misses;
  if (options_.model_external_io && plan.is_sink) {
    cache_->access(external_out_.base + external_out_cursor_++,
                   iomodel::AccessMode::kWrite);
  }
  channel_misses_ += (after_pops - miss_before) + (after_pushes - after_state);
  io_misses_ += (after_in - after_pops) + (stats.misses - after_pushes);
  state_misses_ += after_state - after_in;

  ++fired_[static_cast<std::size_t>(v)];
  ++total_firings_;
  if (plan.is_source) {
    ++source_firings_;
    if (options_.credit_input && input_credit_ != kUnlimitedCredit) --input_credit_;
  }
  if (plan.is_sink) ++sink_firings_;
  if (options_.per_node_attribution) {
    node_miss_base_[static_cast<std::size_t>(v)] += stats.misses - miss_before;
  }
  CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
}

void Engine::advance_baselines() {
  last_stats_ = cache_->stats();
  last_firings_ = total_firings_;
  last_source_firings_ = source_firings_;
  last_sink_firings_ = sink_firings_;
  last_state_misses_ = state_misses_;
  last_channel_misses_ = channel_misses_;
  last_io_misses_ = io_misses_;
  node_miss_base_.assign(node_miss_base_.size(), 0);
}

void Engine::audit_invariants() const {
  // Channel plane: token counts must stay inside [0, capacity]; anything
  // else means a firing moved tokens past the feasibility check.
  for (const Channel& c : channels_) {
    CCS_CHECK(c.size() >= 0, "channel token count went negative");
    CCS_CHECK(c.size() <= c.capacity(), "channel holds more tokens than its capacity");
  }
  // Credit plane: consuming credit below zero means a source firing slipped
  // past the metering gate (fire/run).
  CCS_CHECK(input_credit_ >= 0 || input_credit_ == kUnlimitedCredit,
            "external input credit went negative");
  // Firing-plan plane: every plan's port spans must be well-formed windows
  // into the flattened port arrays, and every port must name a real channel
  // with a positive rate -- fire_unchecked indexes through these with no
  // bounds checks of its own.
  const auto in_count = static_cast<std::int32_t>(in_ports_.size());
  const auto out_count = static_cast<std::int32_t>(out_ports_.size());
  for (const FiringPlan& plan : plans_) {
    CCS_CHECK(plan.in_begin >= 0 && plan.in_begin <= plan.in_end && plan.in_end <= in_count,
              "firing plan input span outside the flattened port array");
    CCS_CHECK(plan.out_begin >= 0 && plan.out_begin <= plan.out_end &&
                  plan.out_end <= out_count,
              "firing plan output span outside the flattened port array");
    CCS_CHECK(plan.state.words >= 0, "firing plan names a negative-size state region");
  }
  const auto channel_count = static_cast<std::int32_t>(channels_.size());
  for (const Port& p : in_ports_) {
    CCS_CHECK(p.channel >= 0 && p.channel < channel_count,
              "input port names a channel outside the engine");
    CCS_CHECK(p.rate > 0, "input port rate must be positive");
  }
  for (const Port& p : out_ports_) {
    CCS_CHECK(p.channel >= 0 && p.channel < channel_count,
              "output port names a channel outside the engine");
    CCS_CHECK(p.rate > 0, "output port rate must be positive");
  }
  // Counter plane: classified misses and per-kind firing tallies can never
  // exceed the totals they partition.
  CCS_CHECK(total_firings_ >= source_firings_ && total_firings_ >= sink_firings_,
            "per-kind firing tally exceeds the total firing count");
  CCS_CHECK(state_misses_ >= 0 && channel_misses_ >= 0 && io_misses_ >= 0,
            "classified miss counter went negative");
}

FootprintSample Engine::footprint_sample() const noexcept {
  FootprintSample sample;
  sample.layout_words = layout_span().words;
  sample.state_words = state_words_;
  sample.accesses = cache_->stats().accesses;
  sample.misses = cache_->stats().misses;
  return sample;
}

RunResult Engine::take() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  RunResult result;
  const iomodel::CacheStats& now = cache_->stats();
  result.cache.accesses = now.accesses - last_stats_.accesses;
  result.cache.hits = now.hits - last_stats_.hits;
  result.cache.misses = now.misses - last_stats_.misses;
  result.cache.writebacks = now.writebacks - last_stats_.writebacks;
  result.firings = total_firings_ - last_firings_;
  result.source_firings = source_firings_ - last_source_firings_;
  result.sink_firings = sink_firings_ - last_sink_firings_;
  result.state_misses = state_misses_ - last_state_misses_;
  result.channel_misses = channel_misses_ - last_channel_misses_;
  result.io_misses = io_misses_ - last_io_misses_;
  if (options_.per_node_attribution) result.node_misses = node_miss_base_;
  advance_baselines();
  return result;
}

RunResult Engine::run(const sdf::FiringProgram& program, std::int64_t repeats) {
  CCS_EXPECTS(repeats >= 0, "negative repeat count");
  if (repeats == 0 || program.empty()) return take();
  // Prove every firing feasible before the first one executes: each block
  // body replayed once gives the program's reach, and the first and the
  // last of the `repeats` rounds bound all the others.
  program_reach_.reset(channels_.size());
  for (const sdf::FiringProgram::Block& block : program.blocks()) {
    measure(program.body(block), block_reach_);
    fold(block_reach_, block.repeats, program_reach_);
  }
  const auto live = [this](std::int32_t e) { return channels_[static_cast<std::size_t>(e)].size(); };
  const std::int64_t round = first_misfit(program_reach_, repeats, live, input_credit_);
  if (round < repeats) reject(program, round);
  for (std::int64_t r = 0; r < repeats; ++r) {
    for (const sdf::FiringProgram::Block& block : program.blocks()) {
      const std::span<const sdf::NodeId> body = program.body(block);
      for (std::int64_t k = 0; k < block.repeats; ++k) {
        for (const sdf::NodeId v : body) fire_unchecked(v);
      }
    }
  }
  return take();
}

EngineState Engine::save_state() const {
  // Quiescence check: all engine-local deltas must have been taken, or the
  // re-anchored baselines on restore would silently swallow them. (Cache
  // deltas are NOT checked -- on a shared cache other tenants' traffic
  // shows up there, and resync_cache_baseline handles it per window.)
  CCS_EXPECTS(total_firings_ == last_firings_ && state_misses_ == last_state_misses_ &&
                  channel_misses_ == last_channel_misses_ && io_misses_ == last_io_misses_,
              "save_state requires a quiescent engine (take() the pending counters first)");
  EngineState s;
  s.channel_heads.reserve(channels_.size());
  s.channel_sizes.reserve(channels_.size());
  for (const Channel& c : channels_) {
    s.channel_heads.push_back(c.head());
    s.channel_sizes.push_back(c.size());
  }
  s.fired = fired_;
  s.input_credit = input_credit_;
  s.external_in_cursor = external_in_cursor_;
  s.external_out_cursor = external_out_cursor_;
  s.source_firings = source_firings_;
  s.sink_firings = sink_firings_;
  s.total_firings = total_firings_;
  s.state_misses = state_misses_;
  s.channel_misses = channel_misses_;
  s.io_misses = io_misses_;
  return s;
}

void Engine::restore_state(const EngineState& state) {
  if (state.channel_heads.size() != channels_.size() ||
      state.channel_sizes.size() != channels_.size() ||
      state.fired.size() != fired_.size()) {
    throw ScheduleError(
        "engine state shape mismatch: saved for a different graph or buffer "
        "assignment");
  }
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    channels_[e].restore(state.channel_heads[e], state.channel_sizes[e]);
  }
  fired_ = state.fired;
  input_credit_ = state.input_credit;
  external_in_cursor_ = state.external_in_cursor;
  external_out_cursor_ = state.external_out_cursor;
  source_firings_ = state.source_firings;
  sink_firings_ = state.sink_firings;
  total_firings_ = state.total_firings;
  state_misses_ = state.state_misses;
  channel_misses_ = state.channel_misses;
  io_misses_ = state.io_misses;
  // Re-anchor every baseline at the restored lifetime counters: the state
  // was captured quiescent, so all deltas were zero then and are zero now.
  advance_baselines();
}

void Engine::migrate_cache(iomodel::CacheSim& cache) {
  CCS_EXPECTS(cache.config().block_words == cache_->config().block_words,
              "migration requires the same block size (the memory layout depends on it)");
  cache_ = &cache;
  last_stats_ = cache.stats();
}

}  // namespace ccs::runtime
