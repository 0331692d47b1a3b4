#include "latency/cost_model.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"

namespace ccs::latency {

namespace {

/// Deterministic contenders-per-stripe estimate for the llc-shared model:
/// of `workers` cores, up to workers - 1 others can collide with a given
/// miss, spread over the LLC's lock stripes. Pure configuration -- measured
/// stripe occupancy would vary with thread interleaving and break the
/// determinism gates.
std::int64_t contenders_per_stripe(const CostContext& ctx) {
  CCS_EXPECTS(ctx.llc_shards >= 1, "LLC needs at least one stripe");
  const std::int64_t others = std::max(0, ctx.workers - 1);
  const std::int64_t stripes = ctx.llc_shards;
  return (others + stripes - 1) / stripes;
}

}  // namespace

CostModel::CostModel(std::string key, std::int64_t firing_cycles,
                     const std::vector<LevelCost>& levels,
                     std::int64_t contention_cycles)
    : key_(std::move(key)), firing_cycles_(firing_cycles) {
  CCS_EXPECTS(firing_cycles_ >= 0, "firing cycles must be non-negative");
  CCS_EXPECTS(contention_cycles >= 0, "contention cycles must be non-negative");
  if (!levels.empty()) {
    const LevelCost& l1 = levels.front();
    CCS_EXPECTS(l1.lookup >= 0 && l1.hit >= 0 && l1.miss >= 0 && l1.writeback >= 0,
                "level costs must be non-negative");
    access_cycles_ = l1.lookup;
    hit_cycles_ = l1.hit;
    miss_cycles_ = l1.miss;
    writeback_cycles_ = l1.writeback;
  }
  // Levels beyond the private L1 are modeled, not measured: each L1 miss is
  // charged the deeper level's lookup + miss service (its own hit/miss
  // split is interleaving-dependent under threads, so pricing it would
  // break determinism -- see the file comment).
  for (std::size_t i = 1; i < levels.size(); ++i) {
    const LevelCost& deeper = levels[i];
    CCS_EXPECTS(deeper.lookup >= 0 && deeper.hit >= 0 && deeper.miss >= 0 &&
                    deeper.writeback >= 0,
                "level costs must be non-negative");
    miss_cycles_ += deeper.lookup + deeper.miss;
    writeback_cycles_ += deeper.writeback;
  }
  miss_cycles_ += contention_cycles;
}

CostModelRegistry& CostModelRegistry::global() {
  static CostModelRegistry instance;
  static const bool initialized = (register_builtin_cost_models(instance), true);
  (void)initialized;
  return instance;
}

CostModel CostModelRegistry::build(const std::string& name, const CostContext& ctx) const {
  return find(name).build(ctx);
}

void register_builtin_cost_models(CostModelRegistry& r) {
  r.add("uniform",
        {[](const CostContext&) { return CostModel(); },
         "1 cycle per firing, zero cache cost (cost == firings; the "
         "strict-extension baseline)"});
  r.add("two-level",
        {[](const CostContext&) {
           // L1: 1-cycle lookup, 1 more on a hit, 4 per dirty eviction.
           // Next level (LLC or memory): 30-cycle modeled service per L1
           // miss. Round numbers on purpose -- the model's job is to spread
           // step costs across orders of magnitude so tails are visible,
           // not to mimic one microarchitecture.
           return CostModel("two-level", 1,
                            {{/*lookup=*/1, /*hit=*/1, /*miss=*/0, /*writeback=*/4},
                             {/*lookup=*/10, /*hit=*/0, /*miss=*/20, /*writeback=*/0}},
                            /*contention_cycles=*/0);
         },
         "1-cycle L1 lookup + 1-cycle hit; an L1 miss pays a modeled "
         "30-cycle next level; 4 cycles per writeback"});
  r.add("llc-shared",
        {[](const CostContext& ctx) {
           // two-level plus 4 cycles per expected contender on the LLC
           // stripe an L1 miss serializes through. With one worker (or no
           // LLC to contend on) the surcharge is zero and the model prices
           // exactly like two-level.
           const std::int64_t surcharge =
               ctx.has_llc ? 4 * contenders_per_stripe(ctx) : 0;
           return CostModel("llc-shared", 1,
                            {{/*lookup=*/1, /*hit=*/1, /*miss=*/0, /*writeback=*/4},
                             {/*lookup=*/10, /*hit=*/0, /*miss=*/20, /*writeback=*/0}},
                            surcharge);
         },
         "two-level plus a deterministic contention surcharge per L1 miss: "
         "4 cycles x ceil((workers-1)/stripes), from configuration only"});
}

}  // namespace ccs::latency
