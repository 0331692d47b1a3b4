#include "core/cluster.h"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <ostream>
#include <queue>
#include <sstream>
#include <thread>
#include <utility>

#include "runtime/engine.h"
#include "schedule/online.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/format.h"
#include "util/stats.h"

namespace ccs::core {

namespace {

// The engine reserves [2^40, ...) for external streams; tenant bands must
// stay below it (mirrors kExternalInBase in runtime/engine.cc).
constexpr std::int64_t kBandSpaceWords = std::int64_t{1} << 40;

/// Shared "pure load balance" rule: least busy, then fewest tenants, then
/// the session's current worker, then lowest id (every tie must break
/// deterministically -- the cluster's repeat-run guarantee rides on it).
/// The current worker's tenant count excludes the session being placed:
/// moving it elsewhere would not lighten the current worker by more than
/// the session itself, so an equally-loaded target is never worth a move.
WorkerId pick_least_loaded(const PlacementRequest& request,
                           const std::vector<ClusterWorkerStatus>& workers) {
  const auto effective_tenants = [&](const ClusterWorkerStatus& w) {
    return w.id == request.current ? w.tenants - 1 : w.tenants;
  };
  const ClusterWorkerStatus* best = nullptr;
  for (const ClusterWorkerStatus& w : workers) {
    if (best == nullptr) {
      best = &w;
      continue;
    }
    if (w.busy != best->busy) {
      if (w.busy < best->busy) best = &w;
      continue;
    }
    if (effective_tenants(w) != effective_tenants(*best)) {
      if (effective_tenants(w) < effective_tenants(*best)) best = &w;
      continue;
    }
    if (w.id == request.current && best->id != request.current) best = &w;
  }
  return best->id;
}

/// Static striping: admissions cycle through workers; a placed session
/// never moves (the zero-migration baseline).
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    if (request.current != kNoWorker) return request.current;
    const WorkerId w = static_cast<WorkerId>(
        next_ % static_cast<std::int64_t>(workers.size()));
    ++next_;
    return w;
  }

 private:
  std::int64_t next_ = 0;
};

/// Follow the busy-time balance wherever it points, ignoring cache state --
/// the pure load-balance extreme of the paper's §7 trade; every move pays
/// real reload misses.
class LeastLoadedPlacement final : public PlacementPolicy {
 public:
  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    return pick_least_loaded(request, workers);
  }
};

/// Shared cache-affinity rule: the worker whose private L1 holds the most
/// of the session's working set wins; the current worker wins residency
/// ties, so a warm session never bounces between equally-warm workers. A
/// cold session (no blocks resident anywhere) falls back to least-loaded.
/// Factored out because the adaptive policy must reproduce it exactly when
/// its migration thresholds never fire (the differential-test contract).
WorkerId pick_affinity(const PlacementRequest& request,
                       const std::vector<ClusterWorkerStatus>& workers) {
  WorkerId best = kNoWorker;
  std::int64_t best_resident = 0;
  for (const ClusterWorkerStatus& w : workers) {
    const auto slot = static_cast<std::size_t>(w.id);
    const std::int64_t resident =
        slot < request.resident_blocks.size() ? request.resident_blocks[slot] : 0;
    const bool warmer = resident > best_resident;
    const bool tied_at_current =
        resident == best_resident && resident > 0 && w.id == request.current;
    if (warmer || tied_at_current) {
      best = w.id;
      best_resident = resident;
    }
  }
  return best != kNoWorker ? best : pick_least_loaded(request, workers);
}

class AffinityPlacement final : public PlacementPolicy {
 public:
  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    return pick_affinity(request, workers);
  }
};

/// Footprint-driven placement: affinity while everyone fits, headroom-
/// seeking when the affinity choice is oversubscribed by hot footprints.
/// The policy itself is stateless and threshold-free -- the cluster
/// classifies sessions (placement::FootprintEstimator) and fills the
/// request/status footprint fields; a cold or express session always takes
/// the plain affinity path, which is what makes never-fire adaptive
/// placement decision-for-decision identical to "affinity".
class AdaptivePlacement final : public PlacementPolicy {
 public:
  bool adaptive() const noexcept override { return true; }

  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    const WorkerId home = pick_affinity(request, workers);
    if (!request.hot || request.footprint_words <= 0) return home;
    // Hot pressure on w if this session ran there: its footprint moves with
    // it, so it stops counting against its current worker.
    const auto pressure_with = [&](const ClusterWorkerStatus& w) {
      const std::int64_t others =
          w.id == request.current ? w.hot_words - request.footprint_words : w.hot_words;
      return others + request.footprint_words;
    };
    const ClusterWorkerStatus& chosen = workers[static_cast<std::size_t>(home)];
    if (pressure_with(chosen) <= chosen.l1_words) return home;
    // The affinity choice cannot hold this session's working set alongside
    // the other hot tenants: shed to the worker with the most headroom.
    // Ties prefer the current worker (a symmetric overload never migrates),
    // then the least busy, then the lowest id.
    const ClusterWorkerStatus* best = nullptr;
    std::int64_t best_headroom = 0;
    for (const ClusterWorkerStatus& w : workers) {
      const std::int64_t headroom = w.l1_words - pressure_with(w);
      if (best == nullptr) {
        best = &w;
        best_headroom = headroom;
        continue;
      }
      if (headroom != best_headroom) {
        if (headroom > best_headroom) {
          best = &w;
          best_headroom = headroom;
        }
        continue;
      }
      if ((w.id == request.current) != (best->id == request.current)) {
        if (w.id == request.current) best = &w;
        continue;
      }
      if (w.busy < best->busy) best = &w;
    }
    return best->id;
  }
};

void write_cache_stats_json(std::ostream& os, const iomodel::CacheStats& s) {
  os << "{\"accesses\": " << s.accesses << ", \"hits\": " << s.hits
     << ", \"misses\": " << s.misses << ", \"writebacks\": " << s.writebacks << "}";
}

void write_histogram_json(std::ostream& os, const latency::Histogram& h) {
  os << "{\"samples\": " << h.count() << ", \"cycles\": " << h.sum()
     << ", \"p50\": " << h.p50() << ", \"p95\": " << h.p95()
     << ", \"p99\": " << h.p99() << ", \"max\": " << h.max() << "}";
}

}  // namespace

PlacementRegistry& PlacementRegistry::global() {
  static PlacementRegistry instance;
  static const bool initialized = (register_builtin_placements(instance), true);
  (void)initialized;
  return instance;
}

void register_builtin_placements(PlacementRegistry& r) {
  r.add("round-robin",
        {[] { return std::make_unique<RoundRobinPlacement>(); },
         "static striping at admission; a placed session never migrates"});
  r.add("least-loaded",
        {[] { return std::make_unique<LeastLoadedPlacement>(); },
         "follow the busy-time balance, ignoring cache state (pays reloads)"});
  r.add("affinity",
        {[] { return std::make_unique<AffinityPlacement>(); },
         "keep a session on the worker whose private cache holds its working "
         "set; least-loaded when cold"});
  r.add("adaptive",
        {[] { return std::make_unique<AdaptivePlacement>(); },
         "affinity, plus footprint-driven shedding when a worker's private "
         "cache is oversubscribed by hot working sets or thrashing"});
}

std::int64_t ClusterReport::makespan() const {
  std::int64_t worst = 0;
  for (const ClusterWorkerReport& w : workers) worst = std::max(worst, w.busy);
  return worst;
}

double ClusterReport::imbalance() const {
  std::vector<std::int64_t> busy;
  busy.reserve(workers.size());
  for (const ClusterWorkerReport& w : workers) busy.push_back(w.busy);
  return busy_imbalance(busy);
}

void ClusterReport::write_json(std::ostream& os) const {
  std::ostringstream balance;
  balance << std::setprecision(15) << imbalance();
  os << "{\n  \"placement\": \"" << json_escape(placement) << "\""
     << ", \"workers\": " << workers.size() << ", \"llc_shards\": " << llc_shards
     << ", \"steps\": " << steps
     << ", \"rounds\": " << rounds << ", \"migrations\": " << migrations
     << ", \"auto_migrations\": " << auto_migrations
     << ", \"migration_noops\": " << migration_noops
     << ", \"retired_sessions\": " << retired_sessions
     << ", \"makespan\": " << makespan() << ", \"imbalance\": " << balance.str();
  // The whole lifecycle block on ONE line: swap-on vs swap-off
  // differentials strip it with `grep -v '"lifecycle"'` and byte-compare
  // the rest.
  os << ",\n  \"lifecycle\": {\"sessions_opened\": " << lifecycle.sessions_opened
     << ", \"sessions_closed\": " << lifecycle.sessions_closed
     << ", \"live_sessions\": " << lifecycle.live_sessions
     << ", \"swapped_sessions\": " << lifecycle.swapped_sessions
     << ", \"peak_live\": " << lifecycle.peak_live
     << ", \"resident_words\": " << lifecycle.resident_words
     << ", \"peak_resident_words\": " << lifecycle.peak_resident_words
     << ", \"swap_outs\": " << lifecycle.swap_outs
     << ", \"swap_ins\": " << lifecycle.swap_ins
     << ", \"closed_swapped\": " << lifecycle.closed_swapped
     << ", \"admissions_rejected\": " << lifecycle.admissions_rejected
     << ", \"admissions_queued\": " << lifecycle.admissions_queued
     << ", \"swap_stored_bytes\": " << swap_stored_bytes
     << ", \"swap_peak_stored_bytes\": " << swap_peak_stored_bytes << "}";
  os << ",\n  \"retired\": {\"accesses\": " << retired.cache.accesses
     << ", \"misses\": " << retired.cache.misses
     << ", \"firings\": " << retired.firings
     << ", \"source_firings\": " << retired.source_firings
     << ", \"sink_firings\": " << retired.sink_firings << "}"
     << ",\n  \"aggregate\": {\"accesses\": " << aggregate.cache.accesses
     << ", \"hits\": " << aggregate.cache.hits
     << ", \"misses\": " << aggregate.cache.misses
     << ", \"writebacks\": " << aggregate.cache.writebacks
     << ", \"firings\": " << aggregate.firings
     << ", \"source_firings\": " << aggregate.source_firings
     << ", \"sink_firings\": " << aggregate.sink_firings
     << ", \"state_misses\": " << aggregate.state_misses
     << ", \"channel_misses\": " << aggregate.channel_misses
     << ", \"io_misses\": " << aggregate.io_misses << "},\n  \"llc\": ";
  write_cache_stats_json(os, llc);
  // The whole latency block on ONE line (mirroring "lifecycle" above): the
  // uniform-model strict-extension gate strips it with `grep -v '"latency"'`
  // and byte-compares the rest against the pre-latency golden capture.
  os << ",\n  \"latency\": {\"cost_model\": \"" << json_escape(cost_model)
     << "\", \"slo_p99\": " << slo_p99 << ", \"total_cost\": " << aggregate.cost
     << ", \"aggregate\": ";
  write_histogram_json(os, aggregate.latency);
  os << ", \"workers\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    os << (w == 0 ? "" : ", ");
    write_histogram_json(os, workers[w].latency);
  }
  os << "], \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const ClusterTenantReport& t = tenants[i];
    os << (i == 0 ? "" : ", ") << "{\"id\": " << t.id
       << ", \"cost\": " << t.totals.cost << ", \"hist\": ";
    write_histogram_json(os, t.totals.latency);
    os << ", \"slo_ok\": "
       << (slo_p99 <= 0 || t.totals.latency.p99() <= slo_p99 ? "true" : "false")
       << "}";
  }
  os << "]}";
  os << ",\n  \"worker_table\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    os << (w == 0 ? "\n" : ",\n") << "    {\"worker\": " << w
       << ", \"busy\": " << workers[w].busy << ", \"steps\": " << workers[w].steps
       << ", \"tenants\": " << workers[w].tenants << ", \"l1\": ";
    write_cache_stats_json(os, workers[w].l1);
    os << "}";
  }
  os << "\n  ],\n  \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const ClusterTenantReport& t = tenants[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << t.id << ", \"name\": \""
       << json_escape(t.name) << "\", \"state\": \"" << session::to_string(t.state)
       << "\", \"worker\": " << t.worker << ", \"steps\": " << t.steps
       << ", \"outputs\": " << t.outputs << ", \"migrations\": " << t.migrations
       << ", \"accesses\": " << t.totals.cache.accesses
       << ", \"misses\": " << t.totals.cache.misses
       << ", \"writebacks\": " << t.totals.cache.writebacks
       << ", \"firings\": " << t.totals.firings
       << ", \"source_firings\": " << t.totals.source_firings
       << ", \"sink_firings\": " << t.totals.sink_firings << "}";
  }
  os << "\n  ]\n}\n";
}

Cluster::Cluster(ClusterOptions options, const PlacementRegistry* registry)
    : options_(std::move(options)),
      pool_(runtime::WorkerPoolOptions{options_.workers, options_.l1,
                                       options_.llc_words, options_.llc_shards}),
      // The estimator classifies against the cache a session actually runs in.
      estimator_(options_.l1.capacity_words) {
  const PlacementRegistry& reg =
      registry != nullptr ? *registry : PlacementRegistry::global();
  latency::CostContext cost_ctx;
  cost_ctx.workers = options_.workers;
  cost_ctx.llc_shards = options_.llc_shards;
  cost_ctx.has_llc = options_.llc_words > 0;
  cost_model_ = latency::CostModelRegistry::global().build(options_.cost_model, cost_ctx);
  policy_ = reg.find(options_.placement).build();
  if (options_.tenant_policy == "miss-aware") {
    miss_aware_ = true;
  } else if (options_.tenant_policy != "round-robin") {
    throw Error("unknown tenant policy '" + options_.tenant_policy +
                "'; valid tenant policies: miss-aware round-robin");
  }
  admission_ = session::AdmissionRegistry::global().build(options_.admission,
                                                          options_.budget);
  if (options_.band_words < options_.l1.block_words ||
      options_.band_words % options_.l1.block_words != 0) {
    throw Error("band_words must be a positive multiple of the cache block size");
  }
  workers_.resize(static_cast<std::size_t>(pool_.size()));
  l1_window_base_.resize(static_cast<std::size_t>(pool_.size()));
}

TenantId Cluster::admit(std::string name, const sdf::SdfGraph& g,
                        const partition::Partition& p, StreamOptions options,
                        std::int64_t m) {
  CCS_EXPECTS(!name.empty(), "tenant name must be non-empty");
  CCS_EXPECTS(m >= 0, "tenant cache share must be non-negative");
  for (const auto& [tid, t] : tenants_) {
    if (t.name == name) throw Error("tenant '" + name + "' is already admitted");
  }
  const std::int64_t effective_m = m > 0 ? m : options_.l1.capacity_words;

  // Bind the session's one policy before anything executes: the admission
  // decision needs the layout footprint, a pure function of the graph and
  // the policy's buffer capacities. The engine comes after the decision,
  // the band and the placement.
  const bool block_align = options.engine.block_align_buffers;
  auto stream = std::make_unique<Stream>(g, p, effective_m, std::move(options));
  const std::int64_t layout_words = runtime::layout_footprint_words(
      g, stream->policy().buffer_caps(), options_.l1.block_words, block_align);
  if (layout_words > options_.band_words) {
    throw Error("session layout (" + std::to_string(layout_words) +
                " words) exceeds band_words (" + std::to_string(options_.band_words) +
                "); raise ClusterOptions::band_words");
  }

  session::AdmissionRequest arequest;
  arequest.layout_words = layout_words;
  bool evicted_for_room = false;
  while (!admission_->admits(current_load(), arequest)) {
    // Make room by evicting the least recently pushed or admitted idle
    // session; a session doing work is never a victim.
    const session::SwapManager::SessionKey victim =
        options_.swap
            ? swap_.victim_if([this](session::SwapManager::SessionKey k) {
                return tenants_.at(static_cast<TenantId>(k)).idle;
              })
            : session::SwapManager::kNone;
    if (victim == session::SwapManager::kNone) {
      ++lifecycle_.admissions_rejected;
      return kNoTenant;
    }
    const TenantId vid = static_cast<TenantId>(victim);
    swap_out_tenant(vid, tenants_.at(vid));
    evicted_for_room = true;
  }
  if (evicted_for_room) ++lifecycle_.admissions_queued;

  // Each session gets a disjoint band_words-wide slab below the engines'
  // external-stream bands, so sessions contend for cache blocks on whatever
  // worker (and shared LLC) they meet instead of silently aliasing. Closed
  // sessions' bands recycle, smallest free band first (deterministic).
  std::int64_t band;
  if (!free_bands_.empty()) {
    band = *free_bands_.begin();
    free_bands_.erase(free_bands_.begin());
  } else {
    if (next_band_ >= kBandSpaceWords / options_.band_words) {
      throw Error("cluster address space exhausted: at most " +
                  std::to_string(kBandSpaceWords / options_.band_words) +
                  " co-open sessions at band_words=" +
                  std::to_string(options_.band_words) +
                  " (close sessions or shrink band_words)");
    }
    band = next_band_++;
  }

  const TenantId id = next_id_;
  PlacementRequest request;
  request.tenant = id;
  request.current = kNoWorker;
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) request.state_words += g.node(v).state;
  request.resident_blocks.assign(static_cast<std::size_t>(pool_.size()), 0);
  const WorkerId home = checked_placement(request);

  stream->attach_engine(session_cache(home), band * options_.band_words);
  stream->set_cost_model(&cost_model_);
  Tenant t;
  t.name = std::move(name);
  t.stream = std::move(stream);
  t.worker = home;
  t.band = band;
  t.layout_words = layout_words;
  const auto [it, inserted] = tenants_.emplace(id, std::move(t));
  CCS_CHECK(inserted, "tenant id reused");
  ++next_id_;
  workers_[static_cast<std::size_t>(home)].tenants.push_back(id);
  ++lifecycle_.sessions_opened;
  lifecycle_.on_resident(layout_words);
  swap_.admit(id);
  // Seed the footprint estimate from the gain-analysis layout (state plus
  // channel rings) -- the paper's working-set bound made concrete. The
  // estimator is keyed by tenant id and only adaptive placement reads it,
  // so static policies skip it; close() reclaims the entry, keeping host
  // memory O(live) either way.
  if (policy_->adaptive()) {
    const runtime::FootprintSample seed = it->second.stream->footprint_sample();
    estimator_.add_session(id, seed.layout_words, seed.state_words);
  }
  return id;
}

TenantId Cluster::admit(std::string name, const Planner& planner, const Plan& plan,
                        StreamOptions options) {
  return admit(std::move(name), planner.graph(), plan.partition, std::move(options));
}

void Cluster::throw_unknown_tenant(TenantId id) const {
  std::string msg = "unknown tenant id " + std::to_string(id) + "; live tenants:";
  if (tenants_.empty()) {
    msg += " (none)";
  } else {
    bool first = true;
    for (const auto& [tid, t] : tenants_) {
      msg += (first ? " " : ", ");
      msg += std::to_string(tid) + " '" + t.name + "'";
      first = false;
    }
  }
  throw Error(msg);
}

Cluster::Tenant& Cluster::tenant(TenantId id) {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) throw_unknown_tenant(id);
  return it->second;
}

const Cluster::Tenant& Cluster::tenant(TenantId id) const {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) throw_unknown_tenant(id);
  return it->second;
}

iomodel::CacheSim& Cluster::session_cache(WorkerId w) {
  iomodel::SharedLlcCache& cache = pool_.worker_cache(w);
  if (cache.has_llc()) return cache;
  return cache.private_level();
}

session::AdmissionLoad Cluster::current_load() const {
  session::AdmissionLoad load;
  load.live_sessions = lifecycle_.live_sessions;
  load.resident_words = lifecycle_.resident_words;
  return load;
}

void Cluster::swap_out_tenant(TenantId id, Tenant& t) {
  CCS_EXPECTS(!t.swapped(), "tenant is already swapped out");
  const session::SessionSnapshot snapshot = t.stream->save_state();
  session::SwapImage image = session::SwapImage::pack(snapshot);
  // The packed image is the only copy of the engine state once the engine
  // is freed; audit builds prove the codec round-trips this very snapshot
  // before the original is destroyed.
  CCS_AUDIT(image.unpack() == snapshot,
            "swap image does not round-trip the session snapshot");
  swap_.swap_out(id, std::move(image));
  t.stream->release_engine();
  t.idle = true;  // swapped sessions are idle by construction
  lifecycle_.on_nonresident(t.layout_words);
  ++lifecycle_.swapped_sessions;
  ++lifecycle_.swap_outs;
}

void Cluster::rehydrate(TenantId id, Tenant& t) {
  CCS_EXPECTS(t.swapped(), "tenant is not swapped out");
  const session::SessionSnapshot snapshot = swap_.swap_in(id).unpack();
  // Back onto the worker that last served it -- placement is pinned across
  // a swap, so swap-on and swap-off runs make identical decisions.
  t.stream->attach_engine(session_cache(t.worker), t.band * options_.band_words);
  t.stream->restore_state(snapshot);
  lifecycle_.on_resident(t.layout_words);
  --lifecycle_.swapped_sessions;
  ++lifecycle_.swap_ins;
}

Stream& Cluster::stream(TenantId id) {
  Tenant& t = tenant(id);
  if (t.swapped()) rehydrate(id, t);
  return *t.stream;
}

const Stream& Cluster::stream(TenantId id) const {
  const Tenant& t = tenant(id);
  if (t.swapped()) {
    throw Error("tenant " + std::to_string(id) +
                " is swapped out; use the non-const accessor to rehydrate");
  }
  return *t.stream;
}

const std::string& Cluster::tenant_name(TenantId id) const { return tenant(id).name; }

WorkerId Cluster::worker_of(TenantId id) const { return tenant(id).worker; }

session::SessionState Cluster::state_of(TenantId id) const {
  const Tenant& t = tenant(id);
  if (t.swapped()) return session::SessionState::kSwapped;
  return t.idle ? session::SessionState::kIdle : session::SessionState::kLive;
}

bool Cluster::swapped(TenantId id) const { return tenant(id).swapped(); }

void Cluster::swap_out(TenantId id) {
  CCS_EXPECTS(options_.swap, "swap_out requires ClusterOptions::swap");
  Tenant& t = tenant(id);
  if (t.swapped()) {
    throw Error("tenant " + std::to_string(id) + " is already swapped out");
  }
  if (!t.idle) {
    throw Error("tenant " + std::to_string(id) +
                " is not idle; only idle sessions can be swapped out");
  }
  swap_out_tenant(id, t);
}

std::int64_t Cluster::swap_out_idle() {
  CCS_EXPECTS(options_.swap, "swap_out_idle requires ClusterOptions::swap");
  std::int64_t evicted = 0;
  for (auto& [id, t] : tenants_) {
    if (!t.swapped() && t.idle) {
      swap_out_tenant(id, t);
      ++evicted;
    }
  }
  return evicted;
}

void Cluster::close(TenantId id) {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) throw_unknown_tenant(id);
  Tenant& t = it->second;
  retired_ += t.stream->stats();
  if (t.swapped()) {
    --lifecycle_.swapped_sessions;
    ++lifecycle_.closed_swapped;
  } else {
    lifecycle_.on_nonresident(t.layout_words);
  }
  Worker& home = workers_[static_cast<std::size_t>(t.worker)];
  home.tenants.erase(std::find(home.tenants.begin(), home.tenants.end(), id));
  home.cursor = 0;  // keep the rotation point deterministic after the edit
  swap_.erase(id);
  if (estimator_.tracks(id)) estimator_.remove_session(id);
  free_bands_.insert(t.band);
  tenants_.erase(it);
  ++lifecycle_.sessions_closed;
}

std::int64_t Cluster::push(TenantId id, std::int64_t items) {
  Tenant& t = tenant(id);
  if (t.swapped()) rehydrate(id, t);
  const std::int64_t accepted = t.stream->push(items);
  if (accepted > 0) {
    t.idle = false;  // new arrivals may unblock the session
    swap_.touch(id);
  }
  return accepted;
}

bool Cluster::try_step(Worker& worker, Tenant& t) {
  const StepResult r = t.stream->step();
  if (!r.progressed()) {
    t.idle = true;  // stays blocked until the controlling thread pushes
    return false;
  }
  // Virtual time advances by the step's modeled cost (== firings under
  // the "uniform" model, preserving the pre-latency clock bit-for-bit).
  worker.busy += r.run.cost;
  worker.latency.record(r.run.cost);
  ++worker.steps;
  t.last_miss_rate = r.run.firings > 0 ? static_cast<double>(r.run.cache.misses) /
                                             static_cast<double>(r.run.firings)
                                       : 0.0;
  return true;
}

bool Cluster::worker_step(WorkerId w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  if (miss_aware_) {
    // Cache affinity: the non-idle tenant whose last step missed least per
    // firing, ties to the lowest id. Swapped tenants are idle, so never
    // picked; a blocked pick goes idle and the scan repeats.
    for (;;) {
      TenantId best_id = kNoTenant;
      Tenant* best = nullptr;
      for (const TenantId id : worker.tenants) {
        Tenant& t = tenants_.at(id);
        if (t.idle) continue;
        if (best == nullptr || t.last_miss_rate < best->last_miss_rate ||
            (t.last_miss_rate == best->last_miss_rate && id < best_id)) {
          best = &t;
          best_id = id;
        }
      }
      if (best == nullptr) return false;
      if (try_step(worker, *best)) return true;
    }
  }
  const std::size_t n = worker.tenants.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t slot = (worker.cursor + probe) % n;
    Tenant& t = tenants_.at(worker.tenants[slot]);
    if (t.idle) continue;  // swapped tenants are idle, so never stepped
    if (!try_step(worker, t)) continue;
    worker.cursor = (slot + 1) % n;
    return true;
  }
  return false;
}

std::int64_t Cluster::step_round() {
  std::int64_t progressed = 0;
  for (WorkerId w = 0; w < worker_count(); ++w) {
    if (worker_step(w)) ++progressed;
  }
  if (progressed > 0) ++rounds_;
  return progressed;
}

std::int64_t Cluster::run_until_idle() {
  adapt();
  std::int64_t executed = 0;
  for (std::int64_t p = step_round(); p > 0; p = step_round()) executed += p;
  return executed;
}

std::int64_t Cluster::run_threads() {
  adapt();  // on the controlling thread, while still quiescent -- exactly
            // the adaptation point run_until_idle uses, so both modes see
            // identical placements before the first step.
  // One thread per worker, each running the same worker_step loop virtual
  // time runs. A worker touches only its own Worker struct, its own
  // tenants, and its own private L1; the shared LLC is the only contended
  // state and SharedLlcCache serializes it internally.
  std::vector<std::int64_t> executed(static_cast<std::size_t>(worker_count()), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(worker_count()));
  for (WorkerId w = 0; w < worker_count(); ++w) {
    threads.emplace_back([this, w, &executed] {
      while (worker_step(w)) ++executed[static_cast<std::size_t>(w)];
    });
  }
  for (std::thread& t : threads) t.join();
  std::int64_t total = 0;
  for (const std::int64_t e : executed) total += e;
  return total;
}

std::vector<ClusterWorkerStatus> Cluster::worker_statuses() const {
  std::vector<ClusterWorkerStatus> out;
  out.reserve(static_cast<std::size_t>(worker_count()));
  for (WorkerId w = 0; w < worker_count(); ++w) {
    const Worker& worker = workers_[static_cast<std::size_t>(w)];
    ClusterWorkerStatus s;
    s.id = w;
    s.busy = worker.busy;
    s.steps = worker.steps;
    s.tenants = static_cast<std::int32_t>(worker.tenants.size());
    s.misses = pool_.worker_stats(w).misses;
    s.l1_words = options_.l1.capacity_words;
    if (adaptive_active()) {
      for (const TenantId id : worker.tenants) {
        if (estimator_.tracks(id) && estimator_.hot(id) && !tenants_.at(id).swapped()) {
          s.hot_words += estimator_.footprint_words(id);
        }
      }
    }
    out.push_back(s);
  }
  return out;
}

PlacementRequest Cluster::request_for(TenantId id) const {
  const Tenant& t = tenant(id);
  PlacementRequest request;
  request.tenant = id;
  request.current = t.worker;
  // Module-state words, matching what admit() reports before the stream
  // exists -- a policy thresholding on state_words must see one number.
  const sdf::SdfGraph& g = t.stream->graph();
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) request.state_words += g.node(v).state;
  request.resident_blocks.reserve(static_cast<std::size_t>(pool_.size()));
  for (WorkerId w = 0; w < worker_count(); ++w) {
    request.resident_blocks.push_back(pool_.resident_blocks(w, t.stream->layout_span()));
  }
  if (adaptive_active() && estimator_.tracks(id)) {
    request.footprint_words = estimator_.footprint_words(id);
    request.hot = estimator_.hot(id);
  }
  return request;
}

WorkerId Cluster::checked_placement(const PlacementRequest& request) {
  const WorkerId w = policy_->place(request, worker_statuses());
  CCS_CHECK(w >= 0 && w < worker_count(), "placement policy picked an invalid worker");
  return w;
}

std::int64_t Cluster::rebalance() {
  std::int64_t moved = 0;
  // Swapped tenants stay pinned: they have no cache state to be affine to,
  // and no live footprint to shed; they re-enter placement churn only after
  // rehydration.
  std::vector<TenantId> resident;
  for (const auto& [id, t] : tenants_) {
    if (!t.swapped()) resident.push_back(id);
  }
  for (const TenantId id : resident) {
    const WorkerId target = checked_placement(request_for(id));
    if (target != tenant(id).worker) {
      migrate(id, target);
      ++moved;
    }
  }
  return moved;
}

std::int64_t Cluster::adapt() {
  if (!policy_->adaptive()) return 0;
  observe_footprints();
  if (!options_.auto_migrate) return 0;
  if (!migration_trigger_fired()) return 0;
  const std::int64_t moved = rebalance();
  auto_migrations_ += moved;
  return moved;
}

void Cluster::observe_footprints() {
  for (const auto& [id, t] : tenants_) {
    if (t.swapped()) continue;  // no live traffic to window
    const runtime::FootprintSample sample = t.stream->footprint_sample();
    placement::FootprintObservation o;
    o.accesses = sample.accesses;
    o.misses = sample.misses;
    o.resident_words = pool_.resident_words(t.worker, t.stream->layout_span());
    estimator_.observe(id, o);
  }
}

bool Cluster::migration_trigger_fired() {
  bool fired = false;
  // Oversubscription: some worker's resident hot footprints exceed its
  // allowance of the private cache.
  const std::int64_t allowance =
      options_.l1.capacity_words * placement::kOversubPermille / 1000;
  std::vector<std::int64_t> hot_words(workers_.size(), 0);
  for (const auto& [id, t] : tenants_) {
    if (!t.swapped() && estimator_.hot(id)) {
      hot_words[static_cast<std::size_t>(t.worker)] += estimator_.footprint_words(id);
    }
  }
  for (const std::int64_t pressure : hot_words) {
    if (pressure > allowance) fired = true;
  }
  // Thrash: a busy worker's private-L1 window miss rate at the threshold.
  // Under the inclusive hierarchy every private miss is one shared-LLC
  // probe, so this is equally the worker's LLC pressure-delta signal -- and
  // unlike raw LLC hit/miss splits it is identical across execution modes.
  for (WorkerId w = 0; w < worker_count(); ++w) {
    const iomodel::CacheStats& now = pool_.worker_stats(w);
    iomodel::CacheStats& base = l1_window_base_[static_cast<std::size_t>(w)];
    const std::int64_t accesses = now.accesses - base.accesses;
    const std::int64_t misses = now.misses - base.misses;
    base = now;  // every adaptation point starts a fresh window
    if (!workers_[static_cast<std::size_t>(w)].tenants.empty() &&
        accesses >= placement::kWorkerMinWindowAccesses &&
        misses * 1000 >= placement::kWorkerThrashMissPermille * accesses) {
      fired = true;
    }
  }
  return fired;
}

void Cluster::migrate(TenantId id, WorkerId target) {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) throw_unknown_tenant(id);
  CCS_EXPECTS(target >= 0 && target < worker_count(), "worker id out of range");
  Tenant& t = it->second;
  if (t.swapped()) rehydrate(id, t);  // a move touches live state
  if (t.worker == target) {
    // Counted no-op: nothing reloads, nothing moves, but drivers retrying
    // placement decisions can see how often they asked for one.
    ++migration_noops_;
    return;
  }
  Worker& from = workers_[static_cast<std::size_t>(t.worker)];
  from.tenants.erase(std::find(from.tenants.begin(), from.tenants.end(), id));
  from.cursor = 0;  // keep the rotation point deterministic after the edit
  Worker& to = workers_[static_cast<std::size_t>(target)];
  to.tenants.push_back(id);
  t.stream->migrate_cache(session_cache(target));
  t.worker = target;
  ++t.migrations;
  ++migrations_;
}

void Cluster::drain_all() {
  for (auto& [id, t] : tenants_) {
    if (t.swapped()) rehydrate(id, t);
    const runtime::RunResult r = t.stream->drain();
    // Drain work executes on the tenant's worker cache; account its cost
    // there so makespan covers the tail work too (it is priced but not a
    // histogram sample -- see Stream::drain).
    workers_[static_cast<std::size_t>(t.worker)].busy += r.cost;
    t.idle = true;
  }
}

ClusterReport Cluster::report() const {
  ClusterReport report;
  report.placement = options_.placement;
  report.cost_model = options_.cost_model;
  report.slo_p99 = options_.slo_p99;
  report.llc_shards = pool_.llc_shards();
  report.rounds = rounds_;
  report.migrations = migrations_;
  report.auto_migrations = auto_migrations_;
  report.migration_noops = migration_noops_;
  report.retired = retired_;
  report.retired_sessions = lifecycle_.sessions_closed;
  report.lifecycle = lifecycle_;
  report.swap_stored_bytes = swap_.stored_bytes();
  report.swap_peak_stored_bytes = swap_.peak_stored_bytes();
  report.aggregate = retired_;
  for (const auto& [id, t] : tenants_) {
    ClusterTenantReport row;
    row.id = id;
    row.name = t.name;
    row.state = state_of(id);
    row.totals = t.stream->stats();
    row.steps = t.stream->steps();
    row.outputs = t.stream->outputs_produced();
    row.worker = t.worker;
    row.migrations = t.migrations;
    report.aggregate += row.totals;
    report.tenants.push_back(std::move(row));
  }
  for (WorkerId w = 0; w < worker_count(); ++w) {
    const Worker& worker = workers_[static_cast<std::size_t>(w)];
    ClusterWorkerReport row;
    row.l1 = pool_.worker_stats(w);
    row.busy = worker.busy;
    row.latency = worker.latency;
    row.steps = worker.steps;
    row.tenants = static_cast<std::int32_t>(worker.tenants.size());
    report.steps += worker.steps;
    report.workers.push_back(row);
  }
  if (pool_.has_llc()) report.llc = pool_.llc_stats();
  return report;
}

namespace {

/// What simulate_parallel_on_pool's workers claim against: committed tokens
/// (a batch's cross inputs leave at its claim, its cross outputs land at its
/// completion) and the components still mid-batch.
struct CommittedView final : schedule::EngineView {
  CommittedView(const runtime::Engine& engine, std::int64_t edges, std::int64_t components)
      : engine(&engine), committed(static_cast<std::size_t>(edges), 0),
        running(static_cast<std::size_t>(components), false) {}

  std::int64_t tokens(sdf::EdgeId e) const override {
    return committed[static_cast<std::size_t>(e)];
  }
  std::int64_t fired(sdf::NodeId v) const override { return engine->fired(v); }
  std::int64_t input_credit() const override { return schedule::kUnlimitedCredit; }
  bool in_flight(std::int64_t c) const override { return running[static_cast<std::size_t>(c)]; }

  const runtime::Engine* engine;
  std::vector<std::int64_t> committed;  ///< Per edge.
  std::vector<bool> running;            ///< Per component.
};

}  // namespace

schedule::ParallelResult simulate_parallel_on_pool(const sdf::SdfGraph& g,
                                                   const partition::Partition& p,
                                                   std::int64_t m,
                                                   runtime::WorkerPool& pool,
                                                   std::int64_t min_outputs) {
  CCS_EXPECTS(min_outputs > 0, "invalid parallel simulation parameters");
  const auto policy = schedule::make_homogeneous_m_batch_policy(g, p, m);
  const std::int32_t workers = pool.size();
  std::vector<std::int64_t> comp(static_cast<std::size_t>(g.node_count()));
  for (std::int64_t c = 0; c < policy->num_components(); ++c) {
    for (const sdf::NodeId v : policy->members(c)) comp[static_cast<std::size_t>(v)] = c;
  }
  const auto comp_of = [&](sdf::NodeId v) { return comp[static_cast<std::size_t>(v)]; };

  runtime::EngineOptions options;
  options.model_external_io = false;
  options.per_node_attribution = false;
  runtime::Engine engine(g, policy->buffer_caps(), pool.worker_cache(0), options);
  CommittedView view(engine, g.edge_count(), policy->num_components());
  // Adds `delta` to every cross edge leaving (outputs) or entering c.
  const auto move_cross = [&](std::int64_t c, bool outputs, std::int64_t delta) {
    for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
      const std::int64_t from = comp_of(g.edge(e).src), to = comp_of(g.edge(e).dst);
      if (from != to && (outputs ? from : to) == c) {
        view.committed[static_cast<std::size_t>(e)] += delta;
      }
    }
  };

  schedule::ParallelResult result;
  result.workers = workers;
  result.worker_misses.assign(static_cast<std::size_t>(workers), 0);
  result.worker_busy.assign(static_cast<std::size_t>(workers), 0);
  result.worker_batches.assign(static_cast<std::size_t>(workers), 0);

  struct Completion {
    std::int64_t time;
    std::int32_t worker;
    std::int64_t comp;
    bool operator>(const Completion& other) const { return time > other.time; }
  };
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions;
  std::vector<bool> worker_idle(static_cast<std::size_t>(workers), true);
  std::int64_t sink_fired = 0;
  std::int64_t now = 0;
  iomodel::CacheStats llc_before;
  if (pool.has_llc()) llc_before = pool.llc_stats();

  // Each idle worker claims the designated component and runs its batch at
  // once on its own cache. The claim rule keeps every live token count in
  // [0, cap]: a consumer is claimed only with M committed inputs, a
  // producer only with its committed outputs consumed.
  auto try_dispatch = [&] {
    for (std::int32_t w = 0; w < workers; ++w) {
      if (!worker_idle[static_cast<std::size_t>(w)]) continue;
      const schedule::StepPlan& plan = policy->next_step(view);
      if (plan.idle()) return;  // nothing claimable until a batch completes
      view.running[static_cast<std::size_t>(plan.component)] = true;
      move_cross(plan.component, false, -m);
      engine.migrate_cache(pool.worker_cache(w));
      const runtime::RunResult r = engine.run(plan.firings);
      result.worker_misses[static_cast<std::size_t>(w)] += r.cache.misses;
      result.worker_busy[static_cast<std::size_t>(w)] += r.firings;
      ++result.worker_batches[static_cast<std::size_t>(w)];
      result.total_firings += r.firings;
      worker_idle[static_cast<std::size_t>(w)] = false;
      completions.push(Completion{now + r.firings, w, plan.component});
    }
  };

  try_dispatch();
  while (sink_fired < min_outputs) {
    if (completions.empty()) {
      throw DeadlockError("parallel scheduler stalled: no component schedulable "
                          "(is some component's state larger than a worker cache?)");
    }
    const Completion done = completions.top();
    completions.pop();
    now = done.time;
    move_cross(done.comp, true, m);
    if (done.comp == comp_of(policy->sink())) sink_fired += m;
    view.running[static_cast<std::size_t>(done.comp)] = false;
    worker_idle[static_cast<std::size_t>(done.worker)] = true;
    try_dispatch();
  }

  result.makespan = now;
  result.outputs = sink_fired;
  for (const auto misses : result.worker_misses) result.total_misses += misses;
  if (pool.has_llc()) {
    const iomodel::CacheStats& llc_now = pool.llc_stats();
    result.llc.accesses = llc_now.accesses - llc_before.accesses;
    result.llc.hits = llc_now.hits - llc_before.hits;
    result.llc.misses = llc_now.misses - llc_before.misses;
    result.llc.writebacks = llc_now.writebacks - llc_before.writebacks;
  }
  return result;
}

}  // namespace ccs::core
