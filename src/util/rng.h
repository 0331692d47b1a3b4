// Deterministic random number generation.
//
// Every workload generator and randomized experiment takes an explicit Rng
// seeded by the caller, so any table in EXPERIMENTS.md can be regenerated
// bit-for-bit. The engine is splitmix64: tiny state, excellent distribution
// for the modest demands here, and trivially reproducible across platforms
// (unlike std::mt19937 distributions, whose mapping is unspecified).
#pragma once

#include <cstdint>
#include <vector>

#include "util/contract.h"

namespace ccs {

/// Deterministic 64-bit PRNG (splitmix64) with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept {
    CCS_ASSERT(lo <= hi, "uniform range inverted");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
    // Rejection-free modulo is fine here: span is tiny vs 2^64, bias < 2^-40.
    return lo + static_cast<std::int64_t>(next() % span);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) noexcept {
    CCS_ASSERT(!v.empty(), "pick from empty vector");
    return v[static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for parallel sub-experiments).
  Rng fork() noexcept { return Rng(next()); }

 private:
  std::uint64_t state_;
};

}  // namespace ccs
