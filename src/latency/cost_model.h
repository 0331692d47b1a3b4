// latency::CostModel -- per-level cycle costs for the cache hierarchy.
//
// Everything below this layer counts transfers; serving is judged in time.
// A CostModel attaches integer cycle costs to the counters the simulator
// already produces -- per-level lookup/hit/miss/writeback vectors in the
// style of gem-forge's per-level lookupLatency -- and collapses them into
// one linear pricing of a (firings, CacheStats-delta) window:
//
//   cost = firing_cycles * firings
//        + access_coeff * accesses + hit_coeff * hits
//        + miss_coeff * misses + writeback_coeff * writebacks
//
// Determinism is the load-bearing design constraint. The only per-tenant
// counters that are bit-identical across execution modes are the PRIVATE
// L1 counters (a shared LLC's hit/miss split depends on real thread
// interleaving -- see runtime/worker_pool.h). So a model may price only
// L1-level counters; everything beyond L1 (the next level's lookup, memory
// service, shard contention) is charged as a MODELED per-L1-miss surcharge
// computed from static configuration (worker count, stripe count), never
// from measured shared-level state. That keeps cost -- and therefore every
// histogram percentile -- inside the repeat-run, thread-count, and
// threads ≡ virtual-time gates.
//
// Linearity is the second load-bearing property: the price of a summed
// window equals the sum of its steps' prices, exactly, in integers -- so
// the order and grouping of steps never change a session's total cost.
//
// Models are string-keyed (CostModelRegistry):
//   * "uniform"    -- 1 cycle per firing, zero cache cost. Cost == firings,
//                     so virtual time advances exactly as it did before the
//                     latency subsystem existed (the strict-extension gate).
//   * "two-level"  -- L1 lookup/hit cycles, an L1 miss pays the modeled
//                     next level (lookup + service), dirty evictions pay a
//                     writeback burst.
//   * "llc-shared" -- "two-level" plus a deterministic contention surcharge
//                     per L1 miss: ceil((workers - 1) / shards) expected
//                     contenders per LLC stripe, a few cycles each.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "iomodel/types.h"
#include "util/registry.h"

namespace ccs::latency {

/// Cycle costs of one cache level (gem-forge style): `lookup` is paid by
/// every access that reaches the level, `hit`/`miss` on the respective
/// outcome, `writeback` per dirty eviction the level performs.
struct LevelCost {
  std::int64_t lookup = 0;
  std::int64_t hit = 0;
  std::int64_t miss = 0;
  std::int64_t writeback = 0;
};

/// Static configuration a registry builder may consult. Only configuration
/// -- never measured occupancy -- so built models are deterministic.
struct CostContext {
  std::int32_t workers = 1;    ///< Worker (core) count sharing the LLC.
  std::int32_t llc_shards = 1; ///< LLC lock stripes (a power of two >= 1).
  bool has_llc = false;        ///< Whether a shared LLC exists at all.
};

/// A linear integer pricing of (firings, private-L1 CacheStats delta).
class CostModel {
 public:
  /// Default-constructed model is "uniform": cost == firings.
  CostModel() = default;

  /// Collapses per-level costs into the linear form. Level 0 is the private
  /// L1 and prices measured counters; level 1 (when present) is the modeled
  /// next level, charged lookup + miss per L1 miss (its own hit/miss split
  /// is unmeasurable without breaking determinism -- see the file comment).
  /// Levels beyond 1 fold into the same per-L1-miss surcharge in order.
  /// `contention_cycles` is an additional per-L1-miss surcharge.
  CostModel(std::string key, std::int64_t firing_cycles,
            const std::vector<LevelCost>& levels, std::int64_t contention_cycles);

  /// Registry key this model was built under ("uniform" by default).
  const std::string& key() const noexcept { return key_; }

  /// Prices one window: firing_cycles * firings plus the per-counter
  /// coefficients over the private-level delta. Linear, so the price of a
  /// summed window equals the sum of its steps' prices.
  std::int64_t step_cost(std::int64_t firings, const iomodel::CacheStats& delta) const {
    return firing_cycles_ * firings + access_cycles_ * delta.accesses +
           hit_cycles_ * delta.hits + miss_cycles_ * delta.misses +
           writeback_cycles_ * delta.writebacks;
  }

 private:
  std::string key_ = "uniform";
  std::int64_t firing_cycles_ = 1;  // per firing, regardless of cache traffic
  // Collapsed per-counter coefficients (all zero under "uniform").
  std::int64_t access_cycles_ = 0;     // per access (the L1 lookup)
  std::int64_t hit_cycles_ = 0;        // per hit
  std::int64_t miss_cycles_ = 0;       // per miss, deeper levels included
  std::int64_t writeback_cycles_ = 0;  // per dirty eviction
};

/// A named cost-model factory.
struct CostModelEntry {
  std::function<CostModel(const CostContext&)> build;
  std::string description;  ///< One-line description for listings.
};

/// String-keyed cost-model table. See util/registry.h for the shared
/// add/find/keys semantics (duplicate and unknown keys throw ccs::Error).
class CostModelRegistry : public NamedRegistry<CostModelEntry> {
 public:
  CostModelRegistry() : NamedRegistry<CostModelEntry>("cost model") {}

  /// The process-wide registry, seeded with the built-ins on first use.
  static CostModelRegistry& global();

  /// Looks up `name` and builds the model for `ctx`. Throws ccs::Error
  /// (listing valid keys) for unknown names.
  CostModel build(const std::string& name, const CostContext& ctx) const;
};

/// Registers the built-in models into `r` (used by global(); exposed so
/// tests can build isolated registries): uniform, two-level, llc-shared.
void register_builtin_cost_models(CostModelRegistry& r);

}  // namespace ccs::latency
