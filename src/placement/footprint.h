// placement::FootprintEstimator -- online working-set estimation for
// adaptive session placement.
//
// The paper's gain analysis bounds each component's working set (state plus
// Theta(M) buffers), and a Stream's memory layout is exactly that bound made
// concrete: module state plus the channel rings the online policy sized from
// the partition. The estimator *seeds* each session's footprint with that
// layout span, then corrects it online from two observed signals:
//
//   * per-session miss rates (Engine::run() counters, attributed per
//     tenant by core::Stream) -- a session whose window miss rate is at the
//     thrash threshold is cycling its whole layout through the cache, so the
//     live estimate snaps back up to the full span;
//   * residency (WorkerPool::resident_words over the session's layout span)
//     -- a warm session's live set is what its worker actually holds.
//
// On top of the estimate sits a hot/cold/express classifier in the mold of
// gem-forge's StreamPlacementManager (per-stream footprint decides which
// cache level a stream lives at, with an "express" bypass for streams too
// big to cache):
//
//   * hot     -- recently active and worth keeping cache-resident; hot
//                footprints are what a worker's L1 budget is charged with.
//   * cold    -- no recent activity; contributes nothing to cache pressure.
//   * express -- active but with a footprint far beyond the private-cache
//                budget; it thrashes wherever it runs, so placement treats
//                it as cold pressure-wise and leaves it to affinity.
//
// Everything is integer arithmetic on observed counters -- no wall clock, no
// floating point -- so estimates are bit-reproducible across repeat runs and
// across the cluster's virtual-time/thread execution modes (both feed the
// estimator identical per-tenant counters at identical quiescent points).
#pragma once

#include <cstdint>
#include <unordered_map>

namespace ccs::placement {

// Classifier and correction thresholds. Rates are expressed per mille so
// the whole estimator stays in exact integer arithmetic.

/// Observation windows with fewer attributed accesses than this count as
/// quiet: they update nothing and push the session toward cold.
inline constexpr std::int64_t kMinWindowAccesses = 64;

/// Consecutive quiet windows before an active session demotes to cold.
inline constexpr std::int64_t kColdWindows = 2;

/// A session whose live footprint exceeds budget_words * this / 1000 is
/// "express": too big to keep resident, so it never counts as hot pressure
/// (gem-forge's bypass for streams too big to cache).
inline constexpr std::int64_t kExpressPermille = 2000;

/// Window miss rate (misses * 1000 / accesses) at or above which the session
/// is treated as cycling its entire layout: the live estimate snaps to the
/// full span instead of trusting residency.
inline constexpr std::int64_t kThrashMissPermille = 500;

/// One counter observation for one session, polled at a quiescent point.
/// Counters are lifetime totals; the estimator windows them internally.
struct FootprintObservation {
  std::int64_t accesses = 0;        ///< Lifetime attributed cache accesses.
  std::int64_t misses = 0;          ///< Lifetime attributed cache misses.
  std::int64_t resident_words = 0;  ///< Layout words currently cache-resident.
};

/// Tracks the live working set of a fleet of sessions, keyed by a
/// caller-chosen id (core::Cluster uses its TenantIds). Only registered
/// sessions hold an entry, so memory is O(live sessions) however many have
/// come and gone. Deterministic: identical observation sequences produce
/// identical estimates.
class FootprintEstimator {
 public:
  /// `budget_words` is the private-cache capacity a session is classified
  /// against (a worker's L1); 0 disables the express classification.
  explicit FootprintEstimator(std::int64_t budget_words);

  /// Registers session `session`, which must not be registered already.
  /// `layout_words` is the gain-analysis seed (state + channel rings, the
  /// Stream's layout span); `state_words` is the module state share, kept as
  /// the floor of the live estimate while the session is active (a freshly
  /// migrated session has nothing resident yet but will reload at least its
  /// state).
  void add_session(std::int32_t session, std::int64_t layout_words,
                   std::int64_t state_words);

  /// Forgets a registered session and reclaims its entry.
  void remove_session(std::int32_t session);

  /// True while `session` is registered.
  bool tracks(std::int32_t session) const { return sessions_.contains(session); }

  /// Registered sessions.
  std::int32_t session_count() const noexcept {
    return static_cast<std::int32_t>(sessions_.size());
  }

  /// Feeds one counter window. Quiet windows (fewer than
  /// kMinWindowAccesses new accesses) only age the session toward cold;
  /// active windows re-classify it and correct the live estimate:
  /// thrash-rate windows snap it to the full layout span, otherwise it
  /// follows observed residency (floored at state_words, capped at the
  /// layout span).
  void observe(std::int32_t session, const FootprintObservation& o);

  /// Current live working-set estimate in words.
  std::int64_t footprint_words(std::int32_t session) const;

  /// Recently active, and small enough to be worth keeping resident. Hot
  /// footprints are what placement charges against a worker's L1 budget.
  bool hot(std::int32_t session) const;

  /// Active but too big for the budget (see kExpressPermille); thrashes
  /// wherever it runs.
  bool express(std::int32_t session) const;

  /// Last active window's miss rate per mille (0 before the first active
  /// window).
  std::int64_t window_miss_permille(std::int32_t session) const;

 private:
  struct Session {
    std::int64_t layout = 0;  ///< Gain-analysis span (the estimate's cap).
    std::int64_t state = 0;   ///< Module-state share (the active floor).
    std::int64_t live = 0;    ///< Current working-set estimate.
    std::int64_t last_accesses = 0;  ///< Lifetime baseline of the window.
    std::int64_t last_misses = 0;
    std::int64_t quiet = 0;          ///< Consecutive quiet windows.
    std::int64_t miss_permille = 0;  ///< Last active window's miss rate.
    bool active = false;
  };

  const Session& session(std::int32_t s) const;
  Session& session(std::int32_t s);

  std::int64_t budget_words_;
  std::unordered_map<std::int32_t, Session> sessions_;
};

// Automatic-migration triggers for the cluster's "adaptive" placement key.
// The estimator classifies; these thresholds decide when classification
// turns into migration (core::ClusterOptions::auto_migrate switches them
// off).

/// A worker is oversubscribed when the sum of its resident hot sessions'
/// footprints exceeds l1_words * this / 1000.
inline constexpr std::int64_t kOversubPermille = 1000;

/// A worker whose private-L1 window miss rate reaches this is thrashing:
/// under the inclusive hierarchy every private miss is a shared-LLC probe,
/// so this is equally the worker's LLC pressure-delta signal.
inline constexpr std::int64_t kWorkerThrashMissPermille = 850;

/// Per-worker windows with fewer L1 accesses than this never signal thrash
/// (avoids classifying warm-up traffic).
inline constexpr std::int64_t kWorkerMinWindowAccesses = 128;

}  // namespace ccs::placement
