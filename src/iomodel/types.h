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

}  // namespace ccs::iomodel
