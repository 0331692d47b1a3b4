// The swap tier: idle sessions as compact byte images.
//
// A resident Stream costs host memory (engine, firing plans, channel
// objects) and a simulated address band worth of bookkeeping even when it
// is idle. The swap tier converts an idle session into (a) a SwapImage --
// a varint-packed byte buffer holding the session's complete mutable state
// (runtime::EngineState + accumulated RunResult + step count) -- and
// (b) an engine-less core::Stream the serving layer keeps (graph copy,
// online policy, counters). Swap-out releases only the engine; rehydration
// attaches a fresh one (construction issues NO cache traffic) and restores
// the image; because the online policies replan from live state every
// step, the rehydrated session's subsequent behaviour is bit-identical to
// one that was never swapped -- the invariant
// tests/session/swap_roundtrip_test.cc gates.
//
// SwapManager is the eviction policy: an LRU over resident sessions
// (touched on admit and on every accepted push; steps run on worker
// threads and do not touch it) choosing victims at quiescent points, plus
// the image store -- modeled on buffer-cache write-behind (evict lazily,
// only when admission needs room) and read-ahead's inverse (rehydrate
// transparently on the next push).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "runtime/engine.h"
#include "runtime/run_result.h"

namespace ccs::session {

/// The complete mutable state of one streaming session at a quiescent
/// point: what core::Stream::save_state() captures and restore_state()
/// takes back. Defined here, below the core layer, so the codec does not
/// depend on core.
struct SessionSnapshot {
  runtime::EngineState engine;
  runtime::RunResult totals;  ///< Session-lifetime accumulated counters.
  std::int64_t steps = 0;     ///< Progressing step() calls.

  friend bool operator==(const SessionSnapshot&, const SessionSnapshot&) = default;
};

/// A swapped-out session: the snapshot packed into a compact byte buffer
/// (unsigned LEB128 varints, zigzag for the signed counters -- idle
/// sessions' mostly-small counters pack to a few bytes each). pack() and
/// unpack() are exact inverses; unpack() throws ccs::Error on a truncated
/// or corrupt image.
class SwapImage {
 public:
  SwapImage() = default;

  /// Serializes a snapshot. Deterministic: equal snapshots produce
  /// byte-identical images.
  static SwapImage pack(const SessionSnapshot& snapshot);

  /// Deserializes; exact inverse of pack(). Throws ccs::Error when the
  /// image is truncated, has trailing bytes, or fails validation.
  SessionSnapshot unpack() const;

  /// Wraps raw bytes (a persisted or transported image) without validation;
  /// unpack() performs the full validation. Inverse of bytes().
  static SwapImage from_bytes(std::vector<std::uint8_t> bytes) {
    SwapImage image;
    image.bytes_ = std::move(bytes);
    return image;
  }

  std::int64_t size_bytes() const noexcept {
    return static_cast<std::int64_t>(bytes_.size());
  }
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// LRU-of-resident-sessions eviction policy plus the swapped-image store.
/// Keys are opaque (the serving layer's TenantId). Deterministic: victim
/// selection depends only on the sequence of admit/touch/swap calls.
///
/// Thread-compatibility: deliberately NOT internally synchronized (no
/// mutex, so nothing here carries thread-safety annotations). The serving
/// layers drive it only from the controlling thread at quiescent points --
/// between run/take windows, never while worker threads are firing -- the
/// same confinement discipline as Engine::save_state/restore_state.
class SwapManager {
 public:
  using SessionKey = std::int64_t;

  /// Sentinel returned by victim_if() when no resident session qualifies.
  static constexpr SessionKey kNone = -1;

  /// Starts tracking a resident session (most-recently-used position).
  /// The key must not already be tracked or swapped.
  void admit(SessionKey key);

  /// Refreshes a resident session's recency (it just received a push).
  /// No-op for keys that are not tracked.
  void touch(SessionKey key);

  /// Stops tracking a session entirely (close()): drops residency and any
  /// stored image.
  void erase(SessionKey key);

  /// True iff at least one resident session could be evicted.
  bool has_victim() const noexcept { return !lru_.empty(); }

  /// The least-recently-active resident session. Requires has_victim().
  SessionKey victim() const;

  /// The least-recently-active resident session satisfying `eligible`, or
  /// kNone. Lets the serving layer restrict eviction to idle sessions.
  SessionKey victim_if(const std::function<bool(SessionKey)>& eligible) const;

  /// Moves a resident session to the swap tier, storing its image.
  void swap_out(SessionKey key, SwapImage image);

  /// Retrieves and removes a stored image, returning the session to
  /// residency at the most-recently-used position. Throws ccs::Error for a
  /// key that is not swapped.
  SwapImage swap_in(SessionKey key);

  bool swapped(SessionKey key) const {
    return images_.find(key) != images_.end();
  }
  bool resident(SessionKey key) const {
    return position_.find(key) != position_.end();
  }

  std::int64_t resident_count() const noexcept {
    return static_cast<std::int64_t>(lru_.size());
  }
  std::int64_t swapped_count() const noexcept {
    return static_cast<std::int64_t>(images_.size());
  }

  /// Bytes currently held in the image store, and the lifetime peak -- the
  /// footprint of "cold" sessions, reported so benches can show it is
  /// small relative to the resident tier it displaced.
  std::int64_t stored_bytes() const noexcept { return stored_bytes_; }
  std::int64_t peak_stored_bytes() const noexcept { return peak_stored_bytes_; }

 private:
  std::list<SessionKey> lru_;  ///< Front = least recently active.
  std::unordered_map<SessionKey, std::list<SessionKey>::iterator> position_;
  std::unordered_map<SessionKey, SwapImage> images_;
  std::int64_t stored_bytes_ = 0;
  std::int64_t peak_stored_bytes_ = 0;
};

}  // namespace ccs::session
