// latency::CostModel and its registry: the uniform strict-extension
// baseline, the collapsed two-level coefficients, the llc-shared
// configuration-only contention surcharge, and the linearity contract that
// makes the sum of step prices equal the price of the summed window.

#include "latency/cost_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "iomodel/cache.h"
#include "util/contract.h"
#include "util/error.h"

namespace ccs::latency {
namespace {

iomodel::CacheStats delta(std::int64_t accesses, std::int64_t hits,
                          std::int64_t misses, std::int64_t writebacks) {
  iomodel::CacheStats s;
  s.accesses = accesses;
  s.hits = hits;
  s.misses = misses;
  s.writebacks = writebacks;
  return s;
}

TEST(CostModel, DefaultIsUniformCostEqualsFirings) {
  const CostModel m;
  EXPECT_EQ(m.key(), "uniform");
  // Cache traffic is free under uniform: cost is exactly the firing count,
  // which is what keeps pre-latency virtual time bit-identical.
  EXPECT_EQ(m.step_cost(0, delta(100, 60, 40, 10)), 0);
  EXPECT_EQ(m.step_cost(17, delta(100, 60, 40, 10)), 17);
}

TEST(CostModel, TwoLevelCollapsesDeeperLevelsIntoMissSurcharge) {
  const CostModel m = CostModelRegistry::global().build("two-level", {});
  // L1{lookup 1, hit 1, wb 4}; deeper{lookup 10, miss 20} folds to +30 per
  // L1 miss: 2 firings + 10*1 + 7*1 + 3*30 + 1*4 = 113.
  EXPECT_EQ(m.step_cost(2, delta(10, 7, 3, 1)), 113);
  // Pricing is per-counter linear: an empty window costs only the firings.
  EXPECT_EQ(m.step_cost(5, {}), 5);
}

TEST(CostModel, LlcSharedSurchargeIsPureConfiguration) {
  CostContext ctx;
  ctx.workers = 4;
  ctx.llc_shards = 2;
  ctx.has_llc = true;
  const CostModel sharded = CostModelRegistry::global().build("llc-shared", ctx);
  // ceil((4-1)/2) = 2 contenders x 4 cycles = +8 per miss over two-level's
  // 30: one miss costs 1 (lookup) + 38.
  EXPECT_EQ(sharded.step_cost(0, delta(1, 0, 1, 0)), 39);

  // One stripe: ceil(3/1) = 3 contenders, +12.
  ctx.llc_shards = 1;
  const CostModel flat = CostModelRegistry::global().build("llc-shared", ctx);
  EXPECT_EQ(flat.step_cost(0, delta(1, 0, 1, 0)), 43);

  // No LLC (or a single worker): nothing to contend on; prices exactly
  // like two-level.
  ctx.has_llc = false;
  const CostModel none = CostModelRegistry::global().build("llc-shared", ctx);
  const CostModel two = CostModelRegistry::global().build("two-level", ctx);
  EXPECT_EQ(none.step_cost(3, delta(10, 7, 3, 1)),
            two.step_cost(3, delta(10, 7, 3, 1)));

  ctx.has_llc = true;
  ctx.workers = 1;
  ctx.llc_shards = 4;
  const CostModel solo = CostModelRegistry::global().build("llc-shared", ctx);
  EXPECT_EQ(solo.step_cost(0, delta(1, 0, 1, 0)), 31);

  // Deterministic: the same configuration always builds the same pricing.
  EXPECT_EQ(sharded.step_cost(9, delta(50, 30, 20, 5)),
            CostModelRegistry::global()
                .build("llc-shared", {4, 2, true})
                .step_cost(9, delta(50, 30, 20, 5)));
}

TEST(CostModel, RegistryListsBuiltinsAndRejectsUnknownKeys) {
  const CostModelRegistry& r = CostModelRegistry::global();
  for (const char* key : {"uniform", "two-level", "llc-shared"}) {
    EXPECT_TRUE(r.contains(key)) << key;
    EXPECT_FALSE(r.find(key).description.empty()) << key;
    EXPECT_EQ(r.build(key, {}).key(), key);
  }
  EXPECT_THROW(r.build("bogus", {}), Error);
}

TEST(CostModel, RejectsNegativeCycleCosts) {
  EXPECT_THROW(CostModel("bad", -1, {}, 0), ContractViolation);
  EXPECT_THROW(CostModel("bad", 1, {}, -1), ContractViolation);
  EXPECT_THROW(CostModel("bad", 1, {{-1, 0, 0, 0}}, 0), ContractViolation);
  EXPECT_THROW(CostModel("bad", 1, {{1, 1, 0, 4}, {0, 0, -5, 0}}, 0),
               ContractViolation);
}

TEST(CostModel, StepPricesSumToTheWindowPrice) {
  // The linearity contract end to end: run a real LruCache through several
  // steps of bulk calls, and the step prices of the per-step counter deltas
  // must sum exactly to the price of the whole window's delta.
  const CostModel m = CostModelRegistry::global().build("two-level", {});
  iomodel::LruCache cache({/*capacity_words=*/256, /*block_words=*/8});

  const auto minus = [](const iomodel::CacheStats& a, const iomodel::CacheStats& b) {
    return delta(a.accesses - b.accesses, a.hits - b.hits, a.misses - b.misses,
                 a.writebacks - b.writebacks);
  };
  const iomodel::CacheStats start = cache.stats();
  std::int64_t summed = 0;
  for (std::int64_t round = 0; round < 4; ++round) {
    const iomodel::CacheStats before = cache.stats();
    // Overlapping strides: some hits, some misses, and capacity evictions.
    cache.access_span(round * 128, 512,
                      round % 2 == 1 ? iomodel::AccessMode::kWrite
                                     : iomodel::AccessMode::kRead);
    cache.access_span(0, 64, iomodel::AccessMode::kRead);
    summed += m.step_cost(round + 1, minus(cache.stats(), before));
  }
  const iomodel::CacheStats window = minus(cache.stats(), start);
  EXPECT_GT(window.writebacks, 0);
  EXPECT_EQ(summed, m.step_cost(1 + 2 + 3 + 4, window));
}

}  // namespace
}  // namespace ccs::latency
