// Core types of the external-memory (I/O) model [Aggarwal & Vitter 1988].
//
// The paper analyzes schedules in this model: a fast cache of M words, an
// arbitrarily large slow memory, and transfers in blocks of B words. Cost is
// the number of block transfers (cache misses). All sizes in this library
// are in *words*; one streaming token occupies one word.
#pragma once

#include <cstdint>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::iomodel {

/// Word address in the simulated flat address space.
using Addr = std::int64_t;

/// Block index = Addr / block_words.
using BlockId = std::int64_t;

/// Read or write; writes mark the cached block dirty (write-back,
/// write-allocate policy, matching how real caches treat streaming stores).
enum class AccessMode : std::uint8_t { kRead, kWrite };

/// Cache geometry.
struct CacheConfig {
  std::int64_t capacity_words = 64 * 1024;  ///< M.
  std::int64_t block_words = 8;             ///< B.

  std::int64_t capacity_blocks() const {
    CCS_EXPECTS(block_words > 0, "block size must be positive");
    CCS_EXPECTS(capacity_words >= block_words, "cache smaller than one block");
    return capacity_words / block_words;
  }
};

/// Transfer counters. `misses` counts fetches from slow memory;
/// `writebacks` counts dirty evictions (also block transfers in the model,
/// tracked separately because the paper's bounds are stated in fetches).
struct CacheStats {
  std::int64_t accesses = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t writebacks = 0;

  double miss_rate() const {
    return accesses > 0 ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
  /// Total block transfers in the I/O model (fetches + dirty evictions).
  std::int64_t transfers() const { return misses + writebacks; }

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// Integer cycle coefficients over the CacheStats counters -- the collapsed
/// form of a latency::CostModel, attachable to a CacheSim so its bulk calls
/// (access_blocks / access_span) return the modeled cost of exactly that
/// call. Pricing is linear, so summing per-call prices equals pricing a
/// whole window's counter delta, exactly, in integers.
struct AccessCosts {
  std::int64_t access = 0;     ///< Per access (the level's lookup cycles).
  std::int64_t hit = 0;        ///< Per hit.
  std::int64_t miss = 0;       ///< Per miss (including modeled deeper levels).
  std::int64_t writeback = 0;  ///< Per dirty eviction.

  /// True when any coefficient is nonzero (the all-zero default prices
  /// every call at 0, keeping the bulk hot path delta-free).
  bool any() const noexcept {
    return (access | hit | miss | writeback) != 0;
  }

  /// Price of a counter delta.
  std::int64_t price(const CacheStats& delta) const noexcept {
    return access * delta.accesses + hit * delta.hits + miss * delta.misses +
           writeback * delta.writebacks;
  }

  friend bool operator==(const AccessCosts&, const AccessCosts&) = default;
};

}  // namespace ccs::iomodel
