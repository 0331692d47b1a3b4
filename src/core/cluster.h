// core::Cluster -- the serving core: Stream sessions over a pool of
// workers, each owning a private L1, all backed by an optional shared LLC.
//
// One worker with no LLC is the paper's model exactly: one cache, and
// several streaming applications timesharing it. ClusterOptions::tenant_policy
// decides which of a worker's sessions steps next (round-robin rotation, or
// "miss-aware" cache affinity on one core -- Kandemir & Chen's
// locality-aware process scheduling). Each cache access belongs to exactly
// one tenant's step, so per-tenant counters always sum to the worker's L1
// counters; the interference between tenants shows up as each tenant's
// misses rising above its solo baseline.
//
// With more workers, placement -- which worker serves which session -- is
// the multicore question the paper's §7 remark raises and the
// communication-affinity literature (Zaourar et al., Kandemir & Chen)
// studies: keep a session's working set on the worker whose cache already
// holds it, because migration pays real reload misses. Placement is a
// pluggable, string-keyed PlacementRegistry rule:
//
//   * "round-robin"  -- static striping at admission; never migrates.
//   * "least-loaded" -- follow the busy-time balance; migrates freely and
//                       pays the reloads (the pure load-balance extreme).
//   * "affinity"     -- rank workers by how many of the session's blocks
//                       their private L1 holds; a session stays put while
//                       its working set is warm (the cache-conscious
//                       extreme; falls back to least-loaded when cold).
//   * "adaptive"     -- affinity, plus footprint-driven reaction: a
//                       placement::FootprintEstimator tracks each session's
//                       live working set (seeded from the gain-analysis
//                       layout, corrected by observed miss rates and
//                       residency), and when a worker's L1 is oversubscribed
//                       by hot footprints or its window miss rate signals
//                       thrash, the cluster consults placement *on its own*
//                       at the next quiescent run entry and sheds hot
//                       sessions to workers with headroom. With migration
//                       disabled (ClusterOptions::auto_migrate = false) it
//                       is decision-for-decision identical to "affinity"
//                       -- the differential-test baseline.
//
// Execution supports two modes through ONE code path (worker_step):
//
//   * Virtual time: workers advance in lockstep rounds, in worker-id order
//     (step_round / run_until_idle). Fully deterministic -- repeat runs are
//     counter-identical down to the shared-LLC statistics.
//   * Threads: run_threads() drives each worker's identical step loop on
//     its own std::thread. A worker's private counters depend only on its
//     own step sequence, which both modes share, so per-tenant RunResults
//     match virtual time exactly and sum to the same aggregates (the golden
//     gate in tests/core/cluster_test.cc); only the shared-LLC interleaving
//     (hence LLC hit/miss split) varies with real concurrency.
//
// Determinism contract: admissions, pushes, rebalance(), and drain_all()
// happen on the controlling thread while the cluster is quiescent; tenant
// sessions never communicate, and each is pinned to exactly one worker
// between rebalance points. Every tenant engine gets a disjoint address
// band (ClusterOptions::band_words, default 2^36), so sessions contend for
// cache blocks instead of aliasing, on whichever worker they land.
//
// Session lifecycle (src/session/): admit() consults a
// session::AdmissionPolicy; a refusal evicts the least recently pushed or
// admitted *idle* session to the swap tier and retries (admissions_queued),
// and with no victim the admission is rejected (admissions_rejected,
// kNoTenant). close() retires a session forever: its totals fold into the
// report's `retired` aggregate, its engine is freed, its band returns to
// the free list, and its id is rejected from then on. With the swap tier
// enabled idle sessions serialize to compact session::SwapImages and
// rehydrate transparently on the next push -- always back onto the worker
// that last served them, so placement decisions, per-tenant counters, and
// report JSON are bit-identical between swap-on and swap-off runs. A tenant
// keeps its one Stream from admit() to close(): swap-out packs the session
// snapshot and releases only the Stream's engine; rehydration attaches a
// fresh engine on the pinned worker's cache and restores the snapshot. The
// tenant's graph copy, online policy, counters and cost model stay in host
// memory throughout, so admission builds each policy once and a swap
// builds none.
//
//   core::ClusterOptions copts;
//   copts.workers = 4;
//   copts.l1 = {4096, 8};
//   copts.llc_words = 64 * 1024;
//   copts.placement = "affinity";
//   core::Cluster cluster(copts);
//   const auto a = cluster.admit("radio", g1, plan1.partition);
//   const auto b = cluster.admit("sort", g2, plan2.partition);
//   cluster.push(a, 4096); cluster.push(b, 4096);
//   cluster.run_until_idle();          // or cluster.run_threads()
//   cluster.drain_all();
//   cluster.report().write_json(std::cout);
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/stream.h"
#include "latency/cost_model.h"
#include "latency/histogram.h"
#include "placement/footprint.h"
#include "runtime/run_result.h"
#include "runtime/worker_pool.h"
#include "schedule/parallel.h"
#include "session/admission.h"
#include "session/lifecycle.h"
#include "session/swap.h"
#include "util/registry.h"

namespace ccs::core {

/// Tenant id within one Cluster: assigned monotonically at admission and
/// never reused, so a closed session's id stays invalid forever.
using TenantId = std::int32_t;

inline constexpr TenantId kNoTenant = -1;

/// Dense worker index within one Cluster. Valid ids are 0..worker_count()-1.
using WorkerId = std::int32_t;

inline constexpr WorkerId kNoWorker = -1;

/// What a placement policy may consult about one worker.
struct ClusterWorkerStatus {
  WorkerId id = kNoWorker;
  std::int64_t busy = 0;     ///< Modeled cycles executed on this worker so far
                             ///< (== firings under the "uniform" cost model).
  std::int64_t steps = 0;    ///< Tenant steps granted so far.
  std::int32_t tenants = 0;  ///< Sessions currently placed here.
  std::int64_t misses = 0;   ///< Private-L1 misses so far.
  std::int64_t l1_words = 0; ///< Private-cache capacity (the footprint budget).

  /// Summed estimated footprints of the *hot* sessions placed here -- the
  /// cache pressure adaptive placement compares against l1_words. Zero
  /// under static policies (nothing is ever classified hot).
  std::int64_t hot_words = 0;
};

/// One placement question: where should this session run?
struct PlacementRequest {
  TenantId tenant = kNoTenant;
  WorkerId current = kNoWorker;  ///< Present placement; kNoWorker at admission.
  std::int64_t state_words = 0;  ///< The session's module-state footprint.

  /// Per worker: blocks of the session's state/ring span resident in that
  /// worker's private L1 -- the affinity signal. All-zero for a new or cold
  /// session.
  std::vector<std::int64_t> resident_blocks;

  /// Estimated live working set in words (placement::FootprintEstimator);
  /// 0 when the cluster runs a non-adaptive policy.
  std::int64_t footprint_words = 0;

  /// True when the session is classified hot (recently active, cacheable).
  /// Always false with ClusterOptions::auto_migrate off, which is what
  /// makes never-fire adaptive placement identical to "affinity".
  bool hot = false;
};

/// A placement rule. place() must return a valid worker id; policies may
/// keep state (a striping cursor) but must be deterministic -- the
/// cluster's repeat-run guarantee depends on it. Returning
/// `request.current` (when not kNoWorker) means "stay put"; anything else
/// migrates the session, which costs real reloads.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual WorkerId place(const PlacementRequest& request,
                         const std::vector<ClusterWorkerStatus>& workers) = 0;

  /// True for policies that want footprint signals filled in and the
  /// cluster's automatic trigger evaluation at quiescent run entries.
  virtual bool adaptive() const noexcept { return false; }
};

/// A named placement-policy factory.
struct PlacementEntry {
  std::function<std::unique_ptr<PlacementPolicy>()> build;
  std::string description;  ///< One-line description for listings.
};

/// String-keyed placement table ("round-robin", "least-loaded",
/// "affinity"). See util/registry.h for the shared add/find/keys semantics.
class PlacementRegistry : public NamedRegistry<PlacementEntry> {
 public:
  PlacementRegistry()
      : NamedRegistry<PlacementEntry>("placement policy", "placement policies") {}

  /// The process-wide registry, seeded with the built-ins on first use.
  static PlacementRegistry& global();
};

/// Registers the built-in placement policies into `r` (used by global();
/// exposed so tests can build isolated registries).
void register_builtin_placements(PlacementRegistry& r);

/// Cluster knobs.
struct ClusterOptions {
  std::int32_t workers = 2;                 ///< Worker (core) count.
  iomodel::CacheConfig l1{4096, 8};         ///< Per-worker private cache.
  std::int64_t llc_words = 0;               ///< Shared LLC; 0 = none.

  /// Lock stripes of the shared LLC (runtime::WorkerPoolOptions::llc_shards):
  /// a power of two >= 1; 0 or a non-power throws. 1 stripe is one global
  /// LRU; per-tenant counters are unaffected at any stripe count, and
  /// wall-clock thread-mode throughput is what more stripes buy at 8+
  /// workers.
  std::int32_t llc_shards = 1;

  std::string placement = "round-robin";    ///< PlacementRegistry key.

  /// Which of a worker's runnable sessions steps next: "round-robin"
  /// rotates through them in placement order; "miss-aware" picks the one
  /// whose last progressed step missed least per firing (its working set is
  /// the one resident), ties to the lowest id.
  std::string tenant_policy = "round-robin";

  /// Adaptive placement's automatic migration triggers
  /// (placement::kOversubPermille, kWorkerThrashMissPermille); ignored by
  /// static policies. false = the triggers never fire and every session
  /// stays cold, which makes "adaptive" decision-for-decision identical to
  /// "affinity" (the differential-test baseline).
  bool auto_migrate = true;

  /// session::AdmissionRegistry key governing admit() ("unbounded" keeps
  /// the pre-lifecycle behaviour), plus the budget it enforces.
  std::string admission = "unbounded";
  session::AdmissionBudget budget;

  /// Enable the idle-session swap tier: an admission the policy refuses
  /// evicts an idle session (serialized to a session::SwapImage) and
  /// retries; swapped sessions rehydrate transparently on their next
  /// push(). Off, refused admissions are simply rejected.
  bool swap = false;

  /// Simulated address-space words reserved per open session; must be a
  /// multiple of the L1 block size. 2^40 / band_words bands exist -- 16 at
  /// the default 2^36, ~1M at 2^20.
  std::int64_t band_words = std::int64_t{1} << 36;

  /// latency::CostModelRegistry key pricing every tenant step. The default
  /// "uniform" prices a step at its firing count, so virtual time, busy,
  /// and makespan are bit-identical to the pre-latency counters (the
  /// strict-extension gate); "two-level" / "llc-shared" spread step costs
  /// across the hierarchy's cycle model.
  std::string cost_model = "uniform";

  /// Target p99 step cost (modeled cycles) for SLO reporting; 0 disables.
  /// Purely observational -- attainment is reported per tenant in the
  /// latency block, scheduling is unaffected.
  std::int64_t slo_p99 = 0;
};

/// One tenant's slice of a ClusterReport.
struct ClusterTenantReport {
  TenantId id = kNoTenant;
  session::SessionState state = session::SessionState::kLive;
  std::string name;
  runtime::RunResult totals;      ///< Whole-session counters (private-L1 level).
  std::int64_t steps = 0;         ///< Component executions granted.
  std::int64_t outputs = 0;       ///< Sink firings produced.
  WorkerId worker = kNoWorker;    ///< Final placement.
  std::int64_t migrations = 0;    ///< Times this session changed workers.
};

/// One worker's slice of a ClusterReport.
struct ClusterWorkerReport {
  iomodel::CacheStats l1;     ///< The worker's private-cache counters.
  std::int64_t busy = 0;      ///< Modeled cycles executed here (== firings under "uniform").
  std::int64_t steps = 0;     ///< Tenant steps granted here.
  std::int32_t tenants = 0;   ///< Sessions placed here at report time.
  latency::Histogram latency; ///< Step costs executed here (stays on the worker
                              ///< across tenant migrations, unlike tenant totals).
};

/// Per-tenant, per-worker, and aggregate accounting of a cluster run.
struct ClusterReport {
  std::vector<ClusterTenantReport> tenants;  ///< Open sessions, in id order.
  std::vector<ClusterWorkerReport> workers;  ///< Worker-id order.
  runtime::RunResult aggregate;              ///< Sum over open tenants + retired.
  runtime::RunResult retired;                ///< Folded totals of closed sessions.
  std::int64_t retired_sessions = 0;         ///< Sessions closed so far.
  session::LifecycleCounters lifecycle;      ///< Residency + admission accounting.
  std::int64_t swap_stored_bytes = 0;        ///< Swap-tier footprint right now.
  std::int64_t swap_peak_stored_bytes = 0;
  iomodel::CacheStats llc;                   ///< Shared-LLC counters (zero when absent).
  std::int32_t llc_shards = 0;               ///< LLC stripes (0 = no shared LLC).
  std::string placement;                     ///< Policy key the cluster ran.
  std::string cost_model;                    ///< Cost-model key pricing the steps.
  std::int64_t slo_p99 = 0;                  ///< Target p99 (0 = no SLO set).
  std::int64_t steps = 0;                    ///< Tenant steps across all workers.
  std::int64_t rounds = 0;                   ///< Virtual-time rounds advanced.
  std::int64_t migrations = 0;               ///< Total migrations performed.
  std::int64_t auto_migrations = 0;          ///< Subset triggered by adaptive placement.
  std::int64_t migration_noops = 0;          ///< migrate() calls to the current worker.

  /// Model completion time: tenants are independent and pinned, so each
  /// worker's schedule compresses back-to-back and the last worker to
  /// finish defines the makespan (max busy over workers).
  std::int64_t makespan() const;

  /// Busy-time balance, same definition as ParallelResult::imbalance
  /// (worst/average; 0.0 for an idle pool).
  double imbalance() const;

  /// One stable-keyed JSON object (counters lossless) so cluster runs can
  /// be diffed in CI like sweep CSVs. In thread mode the "llc" block
  /// depends on real interleaving; diff virtual-time reports.
  void write_json(std::ostream& os) const;
};

/// Multicore streaming cluster: a worker pool, many Stream sessions, one
/// placement rule. The controlling thread owns admission, pushes,
/// rebalancing, and draining; execution happens in virtual time (fully
/// deterministic) or on real worker threads (per-tenant deterministic).
class Cluster {
 public:
  /// Throws MemoryError for a degenerate L1 geometry and ccs::Error for bad
  /// worker/LLC parameters or an unknown placement key. `registry` defaults
  /// to PlacementRegistry::global(); it must outlive the cluster.
  explicit Cluster(ClusterOptions options, const PlacementRegistry* registry = nullptr);

  /// Admits a new session and places it via the placement policy. `m` is
  /// the cache size the session's Theta(M) buffers amortize against; 0 (the
  /// default) uses the private-L1 capacity -- a session plans for the
  /// worker cache it will actually run on. Returns kNoTenant when the
  /// admission policy refuses and no idle victim can be swapped out to make
  /// room; throws ccs::Error when the open-session count exhausts the
  /// address bands or the session's layout exceeds one band.
  TenantId admit(std::string name, const sdf::SdfGraph& g, const partition::Partition& p,
                 StreamOptions options = {}, std::int64_t m = 0);

  /// Retires session `id` forever: totals fold into the report's `retired`
  /// aggregate, the band returns to the free list, and the id is rejected
  /// from then on. Throws ccs::Error naming the live tenants for an unknown
  /// or already-closed id.
  void close(TenantId id);

  /// Convenience: admit a Planner plan (graph and partition from the plan's
  /// session).
  TenantId admit(std::string name, const Planner& planner, const Plan& plan,
                 StreamOptions options = {});

  std::int32_t tenant_count() const noexcept {
    return static_cast<std::int32_t>(tenants_.size());
  }
  std::int32_t worker_count() const noexcept { return pool_.size(); }

  /// The tenant's session (for pushes, polls, or direct stepping): the same
  /// object from admit() to close(). Rehydrates a swapped session first; the
  /// const overload throws instead (a const cluster cannot attach the
  /// engine a swapped session lacks).
  Stream& stream(TenantId id);
  const Stream& stream(TenantId id) const;

  const std::string& tenant_name(TenantId id) const;

  /// Lifecycle state of an open session (kLive / kIdle / kSwapped).
  session::SessionState state_of(TenantId id) const;

  /// True iff the session is currently in the swap tier.
  bool swapped(TenantId id) const;

  /// Evicts one resident idle session (requires ClusterOptions::swap);
  /// throws for a non-idle, already-swapped, or unknown tenant.
  void swap_out(TenantId id);

  /// Evicts every resident idle session (requires ClusterOptions::swap);
  /// returns how many were evicted.
  std::int64_t swap_out_idle();

  /// Residency + admission counters (live view of the report's lifecycle).
  const session::LifecycleCounters& lifecycle() const noexcept { return lifecycle_; }

  /// Worker currently serving tenant `id`.
  WorkerId worker_of(TenantId id) const;

  /// Forwards arrivals to tenant `id`; returns how many were accepted.
  std::int64_t push(TenantId id, std::int64_t items);

  /// Virtual time: one lockstep round -- every worker, in id order, offers
  /// one step to its own tenants (rotating among them). Returns how many
  /// workers progressed (0 = the whole cluster is idle).
  std::int64_t step_round();

  /// Virtual time: rounds until every worker is idle; returns tenant steps
  /// executed. Under an adaptive placement policy, entry is a quiescent
  /// adaptation point: footprints are re-estimated and triggered migrations
  /// happen before the first round.
  std::int64_t run_until_idle();

  /// Thread mode: the identical per-worker step loop, one std::thread per
  /// worker, joined before returning; returns tenant steps executed.
  /// Per-tenant counters are bit-identical to virtual time (see the file
  /// comment); only shared-LLC statistics depend on real interleaving.
  /// Adaptive placement adapts at entry, on the controlling thread, exactly
  /// as run_until_idle does -- which is why the mode-equivalence gate holds
  /// for the "adaptive" key too.
  std::int64_t run_threads();

  /// Consults the placement policy for every tenant (admission order) while
  /// quiescent and migrates those told to move. Returns migrations made.
  std::int64_t rebalance();

  /// Adaptive placement's quiescent checkpoint (called automatically at
  /// run_until_idle/run_threads entry; exposed for drivers that step rounds
  /// by hand). Refreshes the footprint estimator from per-tenant counters
  /// and worker residency, evaluates the migration triggers
  /// (placement::kOversubPermille and the worker thrash window), and
  /// rebalances only when one fires.
  /// Returns migrations made; always 0 under a non-adaptive policy or with
  /// migration disabled.
  std::int64_t adapt();

  /// Moves tenant `id` to worker `target`. Moving a tenant to its current
  /// worker is a no-op, counted in ClusterReport::migration_noops and never
  /// in `migrations`. Throws ccs::Error naming the live tenants for an
  /// unknown `id`. The session's tokens and counters survive a real move;
  /// its working set must reload.
  void migrate(TenantId id, WorkerId target);

  /// Drains every tenant, in admission order (on the controlling thread;
  /// drain firings still execute against the tenant's worker cache).
  void drain_all();

  /// Per-tenant totals, per-worker occupancy, their sum, and the shared
  /// hierarchy's counters.
  ClusterReport report() const;

  runtime::WorkerPool& pool() noexcept { return pool_; }

 private:
  /// One open session. The Stream lives from admit() to close(); while
  /// swapped out it has no engine (its execution state is in the swap tier),
  /// but its graph, policy, stats(), steps() and outputs_produced() stay
  /// readable, so report() never rehydrates.
  struct Tenant {
    std::string name;
    std::unique_ptr<Stream> stream;
    WorkerId worker = kNoWorker;
    bool idle = false;  ///< Known-blocked until new arrivals.
    double last_miss_rate = 0.0;  ///< Misses per firing of the last progressed
                                  ///< step; written only by the owning worker.
    std::int64_t migrations = 0;
    std::int64_t band = 0;          ///< Address-band index.
    std::int64_t layout_words = 0;  ///< Resident footprint (state + rings).

    bool swapped() const noexcept { return !stream->has_engine(); }
  };

  /// Per-worker scheduling state. In thread mode each worker's struct is
  /// touched only by its own thread (tenants never span workers).
  struct Worker {
    std::vector<TenantId> tenants;  ///< Placement, in arrival-at-worker order.
    std::size_t cursor = 0;         ///< Rotation point into `tenants`.
    std::int64_t busy = 0;          ///< Modeled cycles executed here (the virtual clock).
    std::int64_t steps = 0;         ///< Tenant steps granted here.
    latency::Histogram latency;     ///< Step costs executed here.
  };

  /// THE shared code path of both execution modes: one multiplexing
  /// decision on worker `w` -- pick a non-idle tenant placed here by the
  /// tenant policy, step it, account the work; a pick that turns out
  /// blocked is marked idle and the pick repeats. False when every tenant
  /// here is idle.
  bool worker_step(WorkerId w);

  /// Steps `t` on `worker`: accounts a progressed step and returns true, or
  /// marks `t` idle and returns false.
  bool try_step(Worker& worker, Tenant& t);

  Tenant& tenant(TenantId id);
  const Tenant& tenant(TenantId id) const;
  [[noreturn]] void throw_unknown_tenant(TenantId id) const;

  /// Serializes a resident tenant into the swap tier and releases its
  /// Stream's engine.
  void swap_out_tenant(TenantId id, Tenant& t);

  /// Attaches a fresh engine to a swapped tenant's Stream (on its pinned
  /// worker's cache, at its band) and restores the swapped state.
  void rehydrate(TenantId id, Tenant& t);

  session::AdmissionLoad current_load() const;

  /// The cache a session placed on worker `w` executes against. With no
  /// LLC the private level is the whole hierarchy, so sessions probe it
  /// directly instead of through the worker's forwarding view (same
  /// object, same counters, one indirection less per access).
  iomodel::CacheSim& session_cache(WorkerId w);

  PlacementRequest request_for(TenantId id) const;
  std::vector<ClusterWorkerStatus> worker_statuses() const;
  WorkerId checked_placement(const PlacementRequest& request);

  /// True when footprint signals should be filled in and triggers can fire.
  bool adaptive_active() const noexcept {
    return policy_->adaptive() && options_.auto_migrate;
  }

  /// Feeds every tenant's attributed counters and residency to the
  /// estimator (one observation window per adaptation point).
  void observe_footprints();

  /// True iff some worker's hot footprints oversubscribe its L1 or its
  /// private-miss window signals thrash (the two adaptive triggers).
  bool migration_trigger_fired();

  ClusterOptions options_;
  runtime::WorkerPool pool_;
  latency::CostModel cost_model_;  ///< Prices every tenant step; streams point at it.
  std::unique_ptr<PlacementPolicy> policy_;
  bool miss_aware_ = false;  ///< ClusterOptions::tenant_policy, resolved once.
  std::unique_ptr<session::AdmissionPolicy> admission_;
  std::map<TenantId, Tenant> tenants_;  ///< Open sessions only, O(live+swapped).
  TenantId next_id_ = 0;                ///< Ids are never reused.
  std::set<std::int64_t> free_bands_;   ///< Bands returned by close().
  std::int64_t next_band_ = 0;
  session::SwapManager swap_;
  session::LifecycleCounters lifecycle_;
  runtime::RunResult retired_;          ///< Folded totals of closed sessions.
  std::vector<Worker> workers_;
  placement::FootprintEstimator estimator_;
  std::vector<iomodel::CacheStats> l1_window_base_;  ///< Per-worker thrash windows.
  std::int64_t rounds_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t auto_migrations_ = 0;
  std::int64_t migration_noops_ = 0;
};

/// Simulates the asynchronous homogeneous component schedule on the pool's
/// workers (Section 3's extension, Section 7's direction) until the sink
/// completes at least `min_outputs` firings. An idle worker claims the
/// component the "homogeneous-m-batch" OnlinePolicy designates, and one
/// runtime::Engine runs that batch of M iterations on the worker's cache:
///  * one shared layout: a module's state and rings sit at the same
///    addresses on every worker, so a migrated component reloads there;
///  * commit at completion: a batch's cross inputs leave at its claim and
///    its cross outputs land at its completion, so no buffer overfills;
///  * one time unit per firing: a batch takes as long as its firing count.
/// Requires a homogeneous graph and a well-ordered partition whose
/// components fit a worker cache (throws ccs::Error / DeadlockError
/// otherwise). The pool's caches are used as-is (pass a fresh pool for a
/// cold-cache measurement); a pool with a shared LLC also fills
/// ParallelResult::llc with this run's shared-level traffic.
schedule::ParallelResult simulate_parallel_on_pool(const sdf::SdfGraph& g,
                                                   const partition::Partition& p,
                                                   std::int64_t m,
                                                   runtime::WorkerPool& pool,
                                                   std::int64_t min_outputs);

}  // namespace ccs::core
