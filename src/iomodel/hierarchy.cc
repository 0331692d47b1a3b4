#include "iomodel/hierarchy.h"

#include "util/contract.h"

namespace ccs::iomodel {

HierarchyCache::HierarchyCache(std::vector<std::int64_t> level_words,
                               std::int64_t block_words)
    : CacheSim(block_words) {
  CCS_EXPECTS(!level_words.empty(), "hierarchy needs at least one level");
  std::int64_t prev = 0;
  for (const std::int64_t words : level_words) {
    CCS_EXPECTS(words > prev, "level capacities must strictly increase");
    prev = words;
    levels_.push_back(std::make_unique<LruCache>(CacheConfig{words, block_words}));
  }
}

void HierarchyCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  probe_block(block_of(addr), mode);
}

void HierarchyCache::do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  for (BlockId b = first, e = first + count; b != e; ++b) probe_block(b, mode);
}

void HierarchyCache::flush() {
  for (auto& level : levels_) level->flush();
}

bool HierarchyCache::contains(Addr addr) const {
  return levels_.front()->contains(addr);
}

const CacheStats& HierarchyCache::level_stats(std::size_t i) const {
  return level(i).stats();
}

std::int64_t HierarchyCache::level_words(std::size_t i) const {
  return level(i).config().capacity_words;
}

const LruCache& HierarchyCache::level(std::size_t i) const {
  CCS_EXPECTS(i < levels_.size(), "level out of range");
  return *levels_[i];
}

SharedLlcCache::SharedLlcCache(const CacheConfig& private_config, ShardedLruCache* llc)
    : CacheSim(private_config.block_words), l1_(private_config), llc_(llc) {
  if (llc_ == nullptr) return;
  CCS_EXPECTS(llc_->config().block_words == private_config.block_words,
              "shared LLC must use the private level's block size");
  CCS_EXPECTS(llc_->config().capacity_words > private_config.capacity_words,
              "shared LLC must be strictly larger than a private level");
}

void SharedLlcCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  const BlockId block = block_of(addr);
  if (!l1_.access_block(block, mode) && llc_ != nullptr) llc_->access_block(block, mode);
}

void SharedLlcCache::do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  misses_.clear();
  l1_.access_blocks_noting_misses(first, count, mode, llc_ != nullptr ? &misses_ : nullptr);
  for (const BlockId b : misses_) llc_->access_block(b, mode);
}

void SharedLlcCache::flush() { l1_.flush(); }

}  // namespace ccs::iomodel
