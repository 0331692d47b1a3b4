#include "iomodel/hierarchy.h"

#include <gtest/gtest.h>

#include "util/contract.h"

namespace ccs::iomodel {
namespace {

TEST(Hierarchy, SingleLevelBehavesLikeLru) {
  HierarchyCache h({64}, 8);
  LruCache lru(CacheConfig{64, 8});
  for (Addr a : {0, 8, 16, 0, 64, 72, 0, 8}) {
    h.access(a, AccessMode::kRead);
    lru.access(a, AccessMode::kRead);
  }
  EXPECT_EQ(h.stats().misses, lru.stats().misses);
  EXPECT_EQ(h.level_stats(0).hits, lru.stats().hits);
}

TEST(Hierarchy, L1HitNeverReachesL2) {
  HierarchyCache h({64, 1024}, 8);
  h.access(0, AccessMode::kRead);  // miss both levels
  EXPECT_EQ(h.level_stats(0).misses, 1);
  EXPECT_EQ(h.level_stats(1).misses, 1);
  h.access(1, AccessMode::kRead);  // L1 hit
  EXPECT_EQ(h.level_stats(0).hits, 1);
  EXPECT_EQ(h.level_stats(1).accesses, 1);  // L2 untouched by the hit
}

TEST(Hierarchy, L1EvictionServedByL2) {
  // L1 = 2 blocks, L2 = 8 blocks. Touch 3 blocks, come back to the first:
  // L1 misses again but L2 still holds it.
  HierarchyCache h({16, 64}, 8);
  for (Addr a : {0, 8, 16}) h.access(a, AccessMode::kRead);
  h.access(0, AccessMode::kRead);
  EXPECT_EQ(h.level_stats(0).misses, 4);  // 3 cold + 1 conflict
  EXPECT_EQ(h.level_stats(1).misses, 3);  // only the cold ones
  EXPECT_EQ(h.level_stats(1).hits, 1);    // refill from L2
}

TEST(Hierarchy, BackingStatsAreLastLevel) {
  HierarchyCache h({16, 64}, 8);
  for (Addr a : {0, 8, 16, 0}) h.access(a, AccessMode::kRead);
  EXPECT_EQ(h.stats().misses, h.level_stats(1).misses);
  EXPECT_EQ(h.depth(), 2u);
  EXPECT_EQ(h.level_words(0), 16);
  EXPECT_EQ(h.level_words(1), 64);
}

TEST(Hierarchy, FlushEmptiesAllLevels) {
  HierarchyCache h({16, 64}, 8);
  h.access(0, AccessMode::kWrite);
  h.flush();
  EXPECT_FALSE(h.contains(0));
  h.access(0, AccessMode::kRead);
  EXPECT_EQ(h.level_stats(1).misses, 2);
}

TEST(Hierarchy, ContainsChecksL1) {
  HierarchyCache h({16, 64}, 8);
  h.access(0, AccessMode::kRead);
  EXPECT_TRUE(h.contains(0));
  h.access(8, AccessMode::kRead);
  h.access(16, AccessMode::kRead);  // evicts block 0 from L1
  EXPECT_FALSE(h.contains(0));
}

TEST(Hierarchy, RejectsBadGeometry) {
  EXPECT_THROW(HierarchyCache({}, 8), ContractViolation);
  EXPECT_THROW(HierarchyCache({64, 64}, 8), ContractViolation);    // not increasing
  EXPECT_THROW(HierarchyCache({128, 64}, 8), ContractViolation);   // shrinking
}

TEST(Hierarchy, ThreeLevels) {
  HierarchyCache h({16, 64, 256}, 8);
  for (Addr a = 0; a < 32 * 8; a += 8) h.access(a, AccessMode::kRead);  // 32 blocks
  // L3 (32 blocks capacity) holds everything; L1 only the last 2.
  EXPECT_EQ(h.level_stats(2).misses, 32);
  h.access(0, AccessMode::kRead);
  EXPECT_EQ(h.level_stats(2).hits, 1);
}

}  // namespace
}  // namespace ccs::iomodel
