// latency::CostModel and its registry: the uniform strict-extension
// baseline, the collapsed two-level coefficients, the llc-shared
// configuration-only contention surcharge, and the linearity contract that
// lets per-call cache pricing agree with whole-window pricing exactly.

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
  EXPECT_TRUE(m.trivial());
  EXPECT_FALSE(m.access_costs().any());
  // Cache traffic is free under uniform: cost is exactly the firing count,
  // which is what keeps pre-latency virtual time bit-identical.
  EXPECT_EQ(m.step_cost(0, delta(100, 60, 40, 10)), 0);
  EXPECT_EQ(m.step_cost(17, delta(100, 60, 40, 10)), 17);
}

TEST(CostModel, TwoLevelCollapsesDeeperLevelsIntoMissSurcharge) {
  const CostModel m = CostModelRegistry::global().build("two-level", {});
  EXPECT_FALSE(m.trivial());
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

TEST(CostModel, PerCallCachePricesSumToTheWindowPrice) {
  // The linearity contract end to end: attach a model's coefficients to a
  // real LruCache, make several bulk calls, and the per-call costs the
  // cache returns must sum exactly to pricing the whole window's delta.
  const CostModel m = CostModelRegistry::global().build("two-level", {});
  iomodel::LruCache cache({/*capacity_words=*/256, /*block_words=*/8});
  cache.set_access_costs(m.access_costs());

  const iomodel::CacheStats before = cache.stats();
  std::int64_t per_call = 0;
  for (std::int64_t round = 0; round < 4; ++round) {
    // Overlapping strides: some hits, some misses, and capacity evictions.
    per_call += cache.access_span(round * 128, 512,
                                  round % 2 == 1 ? iomodel::AccessMode::kWrite
                                                 : iomodel::AccessMode::kRead);
    per_call += cache.access_span(0, 64, iomodel::AccessMode::kRead);
  }
  const iomodel::CacheStats after = cache.stats();
  const iomodel::CacheStats window = delta(
      after.accesses - before.accesses, after.hits - before.hits,
      after.misses - before.misses, after.writebacks - before.writebacks);
  EXPECT_GT(per_call, 0);
  EXPECT_EQ(per_call, m.access_costs().price(window));
  // step_cost adds only the firing term on top of the same linear price.
  EXPECT_EQ(m.step_cost(6, window), 6 + per_call);
}

TEST(CostModel, CostFreeCacheReturnsZeroWithoutSnapshotting) {
  // Without attached costs (the default), bulk calls return 0 -- the
  // pricing plumbing must be invisible to every pre-latency caller.
  iomodel::LruCache cache({256, 8});
  EXPECT_FALSE(cache.access_costs().any());
  EXPECT_EQ(cache.access_span(0, 512, iomodel::AccessMode::kRead), 0);
}

}  // namespace
}  // namespace ccs::latency
