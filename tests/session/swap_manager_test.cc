// session::SwapImage codec + session::SwapManager LRU eviction policy.

#include "session/swap.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace ccs::session {
namespace {

/// A snapshot with every field populated (mixed magnitudes so the varint
/// codec crosses its one-byte / multi-byte boundaries).
SessionSnapshot sample_snapshot() {
  SessionSnapshot s;
  s.engine.channel_heads = {0, 5, 127, 128, 1 << 20};
  s.engine.channel_sizes = {3, 0, 64, 1, 9999};
  s.engine.fired = {1, 2, 3, 400000, 5};
  s.engine.input_credit = 77;
  s.engine.external_in_cursor = (std::int64_t{1} << 40) + 12345;
  s.engine.external_out_cursor = (std::int64_t{1} << 41) + 678;
  s.engine.source_firings = 4096;
  s.engine.sink_firings = 1024;
  s.engine.total_firings = 123456789;
  s.engine.state_misses = 11;
  s.engine.channel_misses = 22;
  s.engine.io_misses = 33;
  s.totals.cache = {1000, 900, 100, 40};
  s.totals.firings = 123456789;
  s.totals.source_firings = 4096;
  s.totals.sink_firings = 1024;
  s.totals.node_misses = {10, 20, 0, 70};
  s.totals.state_misses = 30;
  s.totals.channel_misses = 50;
  s.totals.io_misses = 20;
  s.steps = 31337;
  return s;
}

TEST(SwapImage, PackUnpackIsExactInverse) {
  const SessionSnapshot before = sample_snapshot();
  const SwapImage image = SwapImage::pack(before);
  EXPECT_GT(image.size_bytes(), 0);
  const SessionSnapshot after = image.unpack();
  EXPECT_EQ(before, after);
}

TEST(SwapImage, PackIsDeterministic) {
  const SwapImage a = SwapImage::pack(sample_snapshot());
  const SwapImage b = SwapImage::pack(sample_snapshot());
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(SwapImage, ImagesAreCompact) {
  // Mostly-small counters should cost a few bytes each, not 8 -- the whole
  // point of the varint coding. The sample has ~35 fields; a fixed-width
  // encoding would need ~280 bytes.
  const SwapImage image = SwapImage::pack(sample_snapshot());
  EXPECT_LT(image.size_bytes(), 160);
}

TEST(SwapImage, UnpackingAnEmptyImageThrows) {
  const SwapImage empty;
  EXPECT_THROW(empty.unpack(), Error);
}

TEST(SwapManager, VictimIsLeastRecentlyActive) {
  SwapManager m;
  m.admit(1);
  m.admit(2);
  m.admit(3);
  EXPECT_EQ(m.victim(), 1);
  m.touch(1);  // 2 is now the coldest
  EXPECT_EQ(m.victim(), 2);
  EXPECT_EQ(m.resident_count(), 3);
}

TEST(SwapManager, VictimIfSkipsIneligibleSessions) {
  SwapManager m;
  m.admit(1);
  m.admit(2);
  m.admit(3);
  EXPECT_EQ(m.victim_if([](SwapManager::SessionKey k) { return k != 1; }), 2);
  EXPECT_EQ(m.victim_if([](SwapManager::SessionKey) { return false; }),
            SwapManager::kNone);
}

TEST(SwapManager, SwapOutAndInMoveSessionsBetweenTiers) {
  SwapManager m;
  m.admit(7);
  m.admit(8);
  const SwapImage image = SwapImage::pack(sample_snapshot());
  const std::int64_t bytes = image.size_bytes();
  m.swap_out(7, image);

  EXPECT_FALSE(m.resident(7));
  EXPECT_TRUE(m.swapped(7));
  EXPECT_EQ(m.resident_count(), 1);
  EXPECT_EQ(m.swapped_count(), 1);
  EXPECT_EQ(m.stored_bytes(), bytes);

  const SwapImage back = m.swap_in(7);
  EXPECT_EQ(back.bytes(), image.bytes());
  EXPECT_TRUE(m.resident(7));
  EXPECT_FALSE(m.swapped(7));
  EXPECT_EQ(m.stored_bytes(), 0);
  EXPECT_EQ(m.peak_stored_bytes(), bytes);
  // Rehydration re-enters at the MRU end: 8 is now the coldest.
  EXPECT_EQ(m.victim(), 8);
}

TEST(SwapManager, SwapInOfResidentSessionThrows) {
  SwapManager m;
  m.admit(1);
  EXPECT_THROW(m.swap_in(1), Error);
}

TEST(SwapManager, EraseDropsBothTiers) {
  SwapManager m;
  m.admit(1);
  m.admit(2);
  m.swap_out(2, SwapImage::pack(sample_snapshot()));
  m.erase(1);
  m.erase(2);
  EXPECT_EQ(m.resident_count(), 0);
  EXPECT_EQ(m.swapped_count(), 0);
  EXPECT_EQ(m.stored_bytes(), 0);
  EXPECT_FALSE(m.has_victim());
}

}  // namespace
}  // namespace ccs::session
