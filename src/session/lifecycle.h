// Session lifecycle accounting: sessions as a managed, bounded resource.
//
// The serving layer (core::Cluster) historically held every
// admitted Stream's engine, channels, and queues live forever -- memory was
// O(ever-admitted), which caps the "millions of users" goal. This layer
// names the lifecycle states a session moves through and counts them, so
// the O(live) claim is machine-checkable from report JSON:
//
//     admit()            step()/push() idle      SwapManager evict
//   ┌────────┐  work   ┌────────┐   quiescent  ┌─────────┐
//   │  LIVE  │ ◄─────► │  IDLE  │ ───────────► │ SWAPPED │
//   └────────┘         └────────┘              └─────────┘
//        │                  ▲     rehydrate on      │
//        │ close()          └──────────────────────-┘
//        ▼                       next push()
//   ┌────────┐
//   │ CLOSED │   (id retired forever; band reusable)
//   └────────┘
//
// LIVE and IDLE sessions are *resident*: their Stream (engine + channel
// rings + counters) occupies host memory and their layout occupies a
// simulated address band. A SWAPPED session is a compact byte image
// (session::SwapImage) plus its Stream without an engine (graph, policy,
// counters); a CLOSED session is a row in an aggregate and nothing else.
#pragma once

#include <cstdint>
#include <string>

namespace ccs::session {

/// Where a session is in its lifecycle. Resident = kLive or kIdle.
enum class SessionState : std::uint8_t {
  kLive,     ///< Resident and recently making progress.
  kIdle,     ///< Resident but blocked (no arrivals / no space) -- swap candidate.
  kSwapped,  ///< Serialized to a SwapImage; rehydrated on the next push().
  kClosed,   ///< Retired; the id is rejected forever, the band is reusable.
};

/// Human-readable state name ("live", "idle", "swapped", "closed").
std::string to_string(SessionState state);

/// Lifecycle counters for one serving endpoint (a Cluster's aggregate). All counts are exact and deterministic; the report JSON
/// writes them verbatim, so repeat-run byte-diffs cover them.
struct LifecycleCounters {
  std::int64_t sessions_opened = 0;  ///< admit() calls that produced a session.
  std::int64_t sessions_closed = 0;  ///< close() calls (ids retired forever).
  std::int64_t live_sessions = 0;    ///< Resident right now (live + idle).
  std::int64_t swapped_sessions = 0; ///< Swapped out right now.
  std::int64_t peak_live = 0;        ///< Max resident at any instant.

  /// Simulated words of state + channel rings across resident sessions:
  /// the O(live) quantity. Swapped and closed sessions contribute zero.
  std::int64_t resident_words = 0;
  std::int64_t peak_resident_words = 0;

  std::int64_t swap_outs = 0;  ///< Evictions to the swap tier.
  std::int64_t swap_ins = 0;   ///< Rehydrations from the swap tier.

  /// close() calls on swapped sessions: each drops its image without a
  /// swap-in, so swap_outs - swap_ins == swapped_sessions + closed_swapped
  /// holds at every quiescent point.
  std::int64_t closed_swapped = 0;

  /// Admissions refused outright by the policy (no victim available, or
  /// the swap tier is disabled).
  std::int64_t admissions_rejected = 0;

  /// Admissions that succeeded only after evicting an idle victim -- the
  /// "queued behind a swap" count.
  std::int64_t admissions_queued = 0;

  /// A session became resident (admit or swap-in), occupying `words`.
  void on_resident(std::int64_t words) {
    ++live_sessions;
    resident_words += words;
    if (live_sessions > peak_live) peak_live = live_sessions;
    if (resident_words > peak_resident_words) peak_resident_words = resident_words;
  }

  /// A resident session left residency (swap-out or close), freeing `words`.
  void on_nonresident(std::int64_t words) {
    --live_sessions;
    resident_words -= words;
  }

  friend bool operator==(const LifecycleCounters&, const LifecycleCounters&) = default;
};

}  // namespace ccs::session
