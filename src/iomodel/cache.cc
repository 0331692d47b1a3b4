#include "iomodel/cache.h"

#include <algorithm>
#include <bit>

#include "util/int_math.h"

namespace ccs::iomodel {

namespace {

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

CacheSim::CacheSim(std::int64_t block_words)
    : block_words_(block_words),
      block_shift_(is_pow2(block_words)
                       ? static_cast<std::int32_t>(
                             std::countr_zero(static_cast<std::uint64_t>(block_words)))
                       : -1),
      max_block_(block_words > 0 ? kMaxInt64 / block_words : 0) {
  CCS_EXPECTS(block_words > 0, "block size must be positive");
}

LruCache::LruCache(const CacheConfig& config)
    : CacheSim(config.block_words),
      config_(config),
      capacity_blocks_(config.capacity_blocks()) {
  CCS_EXPECTS(capacity_blocks_ >= 1, "cache must hold at least one block");
  CCS_EXPECTS(capacity_blocks_ < (std::int64_t{1} << 31) - 1,
              "LRU capacity too large for the flat node slab");
  // Size the probe table for the full capacity up front when it is modest
  // (<= 2^16 blocks: load factor <= 1/2 forever, no rehash ever). Larger
  // capacities start there and double as the working set grows; growth
  // stops once it stabilizes, so the steady state is allocation-free
  // either way.
  const auto eager = static_cast<std::uint64_t>(
      std::min<std::int64_t>(capacity_blocks_, std::int64_t{1} << 16));
  const std::size_t table_size = std::bit_ceil(std::max<std::uint64_t>(16, 2 * eager));
  table_.assign(table_size, kNil);
  table_mask_ = table_size - 1;
  table_shift_ = static_cast<std::int32_t>(
      64 - std::countr_zero(static_cast<std::uint64_t>(table_size)));
  slab_.reserve(static_cast<std::size_t>(eager) + 1);
  slab_.push_back(Node{-1, 0, 0, kNoRun, false});  // sentinel; empty circular list
}

std::size_t LruCache::find_slot(BlockId block) const {
  std::size_t slot = home_slot(block);
  while (table_[slot] != kNil &&
         slab_[static_cast<std::size_t>(table_[slot])].block != block) {
    slot = (slot + 1) & table_mask_;
  }
  return slot;
}

void LruCache::erase_slot(std::size_t slot) {
  // Backward-shift deletion keeps probe sequences contiguous without
  // tombstones: walk forward from the hole, moving back every entry whose
  // home slot does not lie strictly inside (hole, probe].
  std::size_t hole = slot;
  std::size_t probe = slot;
  while (true) {
    probe = (probe + 1) & table_mask_;
    const std::int32_t idx = table_[probe];
    if (idx == kNil) break;
    const std::size_t home = home_slot(slab_[static_cast<std::size_t>(idx)].block);
    if (((probe - home) & table_mask_) >= ((probe - hole) & table_mask_)) {
      table_[hole] = idx;
      hole = probe;
    }
  }
  table_[hole] = kNil;
}

void LruCache::grow_table() {
  const std::size_t table_size = table_.size() * 2;
  table_.assign(table_size, kNil);
  table_mask_ = table_size - 1;
  table_shift_ = static_cast<std::int32_t>(
      64 - std::countr_zero(static_cast<std::uint64_t>(table_size)));
  for (std::int32_t i = 1; i <= size_; ++i) {
    std::size_t slot = home_slot(slab_[static_cast<std::size_t>(i)].block);
    while (table_[slot] != kNil) slot = (slot + 1) & table_mask_;
    table_[slot] = i;
  }
}

void LruCache::move_to_front(std::int32_t idx) {
  if (slab_[0].next == idx) return;  // already MRU
  Node& n = slab_[static_cast<std::size_t>(idx)];
  // Branch-free circular relink through the sentinel.
  slab_[static_cast<std::size_t>(n.prev)].next = n.next;
  slab_[static_cast<std::size_t>(n.next)].prev = n.prev;
  const std::int32_t old_head = slab_[0].next;
  n.prev = 0;
  n.next = old_head;
  slab_[static_cast<std::size_t>(old_head)].prev = idx;
  slab_[0].next = idx;
}

bool LruCache::touch_block(BlockId block, bool write) {
  std::size_t slot = find_slot(block);
  std::int32_t idx = table_[slot];
  if (idx != kNil) {
    Node& n = slab_[static_cast<std::size_t>(idx)];
    if (write) n.dirty = true;
    if (n.run != kNoRun) [[unlikely]] {
      leave_run(n.run);
      n.run = kNoRun;
    }
    move_to_front(idx);
    return true;
  }
  if (size_ == capacity_blocks_) {
    // Evict the LRU block in place: reuse its node for the incoming block.
    idx = slab_[0].prev;
    Node& victim = slab_[static_cast<std::size_t>(idx)];
    if (victim.dirty) ++stats_.writebacks;
    if (victim.run != kNoRun) [[unlikely]] {
      leave_run(victim.run);
      victim.run = kNoRun;
    }
    erase_slot(find_slot(victim.block));
    slot = find_slot(block);  // erase may have shifted entries
    victim.block = block;
    victim.dirty = write;
    move_to_front(idx);
  } else {
    if (2 * static_cast<std::size_t>(size_ + 1) > table_.size()) {
      grow_table();
      slot = find_slot(block);
    }
    idx = static_cast<std::int32_t>(++size_);
    if (static_cast<std::size_t>(idx) == slab_.size()) {
      slab_.push_back(Node{block, 0, 0, kNoRun, write});
    } else {
      slab_[static_cast<std::size_t>(idx)] = Node{block, 0, 0, kNoRun, write};
    }
    const std::int32_t old_head = slab_[0].next;
    slab_[static_cast<std::size_t>(idx)].next = old_head;
    slab_[static_cast<std::size_t>(old_head)].prev = idx;
    slab_[0].next = idx;
  }
  table_[slot] = idx;
  return false;
}

std::int32_t LruCache::open_run(BlockId first, std::int64_t count) {
  std::int32_t r;
  if (free_runs_.empty()) {
    r = static_cast<std::int32_t>(runs_.size());
    runs_.push_back(Run{});
  } else {
    r = free_runs_.back();
    free_runs_.pop_back();
  }
  // live stays 0 until the loop has tagged every member; top and bottom
  // are filled in as the first and last blocks reach the head.
  runs_[static_cast<std::size_t>(r)] =
      Run{first, static_cast<std::int32_t>(count), kNil, kNil, 0};
  return r;
}

void LruCache::splice_run(const Run& r, bool write) {
  const std::int32_t head = slab_[0].next;
  if (head != r.top) {
    // Unlink [top..bottom] as one piece and relink it under the sentinel:
    // top is not the head, so its predecessor is a real node, and the node
    // after bottom may be the sentinel (whose .prev, the LRU end, stays
    // exact).
    Node& top = slab_[static_cast<std::size_t>(r.top)];
    Node& bottom = slab_[static_cast<std::size_t>(r.bottom)];
    slab_[static_cast<std::size_t>(top.prev)].next = bottom.next;
    slab_[static_cast<std::size_t>(bottom.next)].prev = top.prev;
    top.prev = 0;
    bottom.next = head;
    slab_[static_cast<std::size_t>(head)].prev = r.bottom;
    slab_[0].next = r.top;
  }
  if (write) {
    for (std::int32_t idx = r.top;; idx = slab_[static_cast<std::size_t>(idx)].next) {
      slab_[static_cast<std::size_t>(idx)].dirty = true;
      if (idx == r.bottom) break;
    }
  }
}

void LruCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  ++stats_.accesses;
  if (touch_block(block_of(addr), mode == AccessMode::kWrite)) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
}

template <bool kNoteMisses>
void LruCache::bulk_loop(BlockId first, std::int64_t count, AccessMode mode,
                         std::vector<BlockId>* misses) {
  const bool write = mode == AccessMode::kWrite;
  // A single block gains nothing from a splice, and a span longer than the
  // cache evicts its own first blocks, so neither is ever a run. The gate
  // (run_credit_) decides whether this span consults and records the memo
  // at all; a span that does not runs the loop with no run to tag.
  if (count >= 2 && count <= capacity_blocks_ &&
      (run_credit_ > 0 || (++run_explore_ & kRunExploreMask) == 0)) {
    // The first block's probe is both the memo lookup and, if the rescan
    // does not apply, the loop's own probe of that block.
    const std::int32_t first_idx = table_[find_slot(first)];
    if (first_idx != kNil) {
      const std::int32_t r = slab_[static_cast<std::size_t>(first_idx)].run;
      if (r != kNoRun) {
        const Run& rec = runs_[static_cast<std::size_t>(r)];
        if (rec.bottom == first_idx && rec.first == first && rec.count == count &&
            rec.live == count) {
          splice_run(rec, write);
          stats_.accesses += count;
          stats_.hits += count;
          run_credit_ = std::min(run_credit_ + kRunReward, kRunCreditMax);
          CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
          return;
        }
      }
    }
    if (run_credit_ > 0) --run_credit_;
    span_loop<kNoteMisses, true>(first, count, write, misses, open_run(first, count),
                                 first_idx);
  } else {
    span_loop<kNoteMisses, false>(first, count, write, misses, kNoRun, kNil);
  }
  CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
}

template <bool kNoteMisses, bool kRecord>
void LruCache::span_loop(BlockId first, std::int64_t count, bool write,
                         std::vector<BlockId>* misses, std::int32_t recorded,
                         std::int32_t first_idx) {
  // Without a run to record, the tag is the constant kNoRun, so the loop
  // only untags the nodes it moves.
  const std::int32_t run = kRecord ? recorded : kNoRun;
  BlockId b = first;
  const BlockId e = first + count;
  std::int64_t hits = 0;
  // Keep the MRU head in a register across the span: the per-block relink
  // otherwise carries a store/load dependency through slab_[0].next.
  std::int32_t head = slab_[0].next;

  // A node that just reached the head leaves whatever run it was in and
  // joins this span's run (or none).
  const auto tag = [&](Node& n) {
    if (n.run != run) [[unlikely]] {
      if (n.run != kNoRun) leave_run(n.run);
      n.run = run;
    }
  };

  // Per-block body on a probed node index: exact hit/miss handling.
  const auto visit = [&](BlockId blk, std::int32_t idx) {
    if (idx != kNil) {
      ++hits;
      Node& n = slab_[static_cast<std::size_t>(idx)];
      if (write) n.dirty = true;
      if (head != idx) {
        // idx is not the head, so n.prev != 0 and nothing here reads the
        // (stale) slab_[0].next; n.next may be the sentinel, whose .prev
        // (the LRU tail) stays exact.
        slab_[static_cast<std::size_t>(n.prev)].next = n.next;
        slab_[static_cast<std::size_t>(n.next)].prev = n.prev;
        n.prev = 0;
        n.next = head;
        slab_[static_cast<std::size_t>(head)].prev = idx;
        head = idx;
      }
      tag(n);
    } else {
      // The miss path walks the list through the sentinel (eviction, table
      // maintenance): sync the cached head around it. touch_block leaves
      // the new head untagged.
      slab_[0].next = head;
      touch_block(blk, write);
      head = slab_[0].next;
      slab_[static_cast<std::size_t>(head)].run = run;
      if constexpr (kNoteMisses) misses->push_back(blk);
    }
  };

  if constexpr (kRecord) {
    visit(b++, first_idx);
    runs_[static_cast<std::size_t>(run)].bottom = head;
  }
  for (; b != e; ++b) {
    prefetch(&table_[home_slot(b + 1)]);  // harmless one-past-the-end probe
    visit(b, table_[find_slot(b)]);
  }

  slab_[0].next = head;
  if constexpr (kRecord) {
    // Every block of the span is tagged and the last one is the head.
    Run& rec = runs_[static_cast<std::size_t>(run)];
    rec.top = head;
    rec.live = static_cast<std::int32_t>(count);
  }
  stats_.accesses += count;
  stats_.hits += hits;
  stats_.misses += count - hits;
}

void LruCache::do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  bulk_loop<false>(first, count, mode, nullptr);
}

void LruCache::access_blocks_noting_misses(BlockId first, std::int64_t count,
                                           AccessMode mode, std::vector<BlockId>* misses) {
  CCS_EXPECTS(first >= 0 && count >= 0, "negative block range");
  if (misses != nullptr) {
    bulk_loop<true>(first, count, mode, misses);
  } else {
    bulk_loop<false>(first, count, mode, nullptr);
  }
}

void LruCache::flush() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  for (std::int32_t i = 1; i <= size_; ++i) {
    if (slab_[static_cast<std::size_t>(i)].dirty) ++stats_.writebacks;
  }
  std::fill(table_.begin(), table_.end(), kNil);
  slab_[0].prev = slab_[0].next = 0;
  size_ = 0;
  // Every node is free now (and re-created untagged when reused), so every
  // run is gone with it.
  runs_.clear();
  free_runs_.clear();
}

void LruCache::audit_invariants() const {
  CCS_CHECK(size_ >= 0 && size_ <= capacity_blocks_,
            "resident count outside [0, capacity]");
  // Recency plane: exactly size_ nodes reachable forward from the sentinel,
  // back links consistent at every hop, circle closed by the sentinel's LRU
  // link. The walk is bounded by size_ so a corrupt cycle fails fast
  // instead of spinning.
  std::int64_t walked = 0;
  std::int32_t prev = 0;
  for (std::int32_t idx = slab_[0].next; idx != 0;
       idx = slab_[static_cast<std::size_t>(idx)].next) {
    CCS_CHECK(idx >= 1 && idx <= size_, "recency link points outside the live slab");
    const Node& n = slab_[static_cast<std::size_t>(idx)];
    CCS_CHECK(n.prev == prev, "recency list back link broken");
    CCS_CHECK(n.block >= 0, "resident node holds an invalid block id");
    CCS_CHECK(walked++ < size_, "recency list longer than resident count (cycle?)");
    // Table plane: every resident block must be findable at the slot the
    // probe sequence ends on, mapping back to this very node.
    CCS_CHECK(table_[find_slot(n.block)] == idx,
              "table does not map a resident block to its node");
    prev = idx;
  }
  CCS_CHECK(walked == size_, "recency list shorter than resident count");
  CCS_CHECK(slab_[0].prev == prev, "sentinel LRU link does not close the circle");
  // Table plane: exactly size_ live entries, all within the live slab range
  // (a duplicate table entry would already have failed the walk above,
  // since two slots cannot both be find_slot of one block).
  std::int64_t live = 0;
  for (const std::int32_t idx : table_) {
    if (idx == kNil) continue;
    ++live;
    CCS_CHECK(idx >= 1 && idx <= size_, "table entry outside the live slab range");
  }
  CCS_CHECK(live == size_, "table entry count disagrees with resident count");

  // Run plane: each record's live count is exactly its number of tagged
  // resident nodes (free slab nodes are untagged when reused, so only the
  // resident ones count).
  std::vector<std::int64_t> tagged(runs_.size(), 0);
  for (std::int32_t idx = 1; idx <= size_; ++idx) {
    const std::int32_t r = slab_[static_cast<std::size_t>(idx)].run;
    if (r == kNoRun) continue;
    CCS_CHECK(r >= 0 && static_cast<std::size_t>(r) < runs_.size(),
              "node tagged with a run outside the run table");
    ++tagged[static_cast<std::size_t>(r)];
  }
  std::int64_t live_runs = 0;
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    CCS_CHECK(run.live == tagged[r], "run live count disagrees with its tagged nodes");
    if (run.live == 0) continue;
    ++live_runs;
    CCS_CHECK(run.count >= 2 && run.count <= capacity_blocks_ && run.live <= run.count,
              "run length outside [2, capacity] or more live members than blocks");
    if (run.live != run.count) continue;  // broken for good; never spliced
    // Intact: top..bottom walks the blocks first + count - 1 down to first.
    std::int32_t idx = run.top;
    for (std::int32_t i = 0; i < run.count; ++i) {
      CCS_CHECK(idx >= 1 && idx <= size_, "intact run walks outside the live slab");
      const Node& n = slab_[static_cast<std::size_t>(idx)];
      CCS_CHECK(n.run == static_cast<std::int32_t>(r), "intact run holds a foreign node");
      CCS_CHECK(n.block == run.first + run.count - 1 - i,
                "intact run is out of scan order");
      if (i + 1 < run.count) idx = n.next;
    }
    CCS_CHECK(idx == run.bottom, "intact run does not end at its bottom node");
  }
  // The free records are exactly the runs with no member left.
  std::vector<bool> is_free(runs_.size(), false);
  for (const std::int32_t r : free_runs_) {
    CCS_CHECK(r >= 0 && static_cast<std::size_t>(r) < runs_.size(),
              "free run index outside the run table");
    CCS_CHECK(!is_free[static_cast<std::size_t>(r)], "run freed twice");
    CCS_CHECK(runs_[static_cast<std::size_t>(r)].live == 0, "free list holds a live run");
    is_free[static_cast<std::size_t>(r)] = true;
  }
  CCS_CHECK(live_runs + static_cast<std::int64_t>(free_runs_.size()) ==
                static_cast<std::int64_t>(runs_.size()),
            "a run record is neither live nor free");
}

bool LruCache::contains(Addr addr) const {
  if (addr < 0) return false;
  return table_[find_slot(block_of(addr))] != kNil;
}

SetAssociativeCache::SetAssociativeCache(const CacheConfig& config, std::int32_t ways)
    : CacheSim(config.block_words), config_(config), ways_(ways) {
  CCS_EXPECTS(ways >= 1, "need at least one way");
  const std::int64_t blocks = config.capacity_blocks();
  CCS_EXPECTS(blocks % ways == 0, "capacity_blocks must be divisible by ways");
  num_sets_ = blocks / ways;
  CCS_EXPECTS(is_pow2(num_sets_), "number of sets must be a power of two");
  const auto lines = static_cast<std::size_t>(num_sets_) * static_cast<std::size_t>(ways_);
  tags_.assign(lines, kEmptyTag);
  meta_.assign(lines, 0);
}

void SetAssociativeCache::fill_way(std::size_t base, BlockId block, bool write) {
  const BlockId* tags = tags_.data() + base;
  // Victim: the last empty way if any way is empty, else the unique
  // least-recently-used way (meta compares as the stamp because stamps are
  // distinct and sit above the dirty bit).
  std::int32_t victim = 0;
  for (std::int32_t w = 1; w < ways_; ++w) {
    if (tags[w] == kEmptyTag) {
      victim = w;
    } else if (tags[victim] != kEmptyTag &&
               meta_[base + static_cast<std::size_t>(w)] <
                   meta_[base + static_cast<std::size_t>(victim)]) {
      victim = w;
    }
  }
  const std::size_t line = base + static_cast<std::size_t>(victim);
  if (tags_[line] != kEmptyTag && (meta_[line] & 1) != 0) ++stats_.writebacks;
  tags_[line] = block;
  meta_[line] = (tick_ << 1) | (write ? 1 : 0);
}

bool SetAssociativeCache::touch_block(BlockId block, bool write) {
  ++tick_;
  const std::size_t base = set_index(block) * static_cast<std::size_t>(ways_);
  const BlockId* tags = tags_.data() + base;
  // One-pass early-exit scan tracking the victim as it goes: on the random
  // single-access path the simulator's own cache misses dominate, so
  // touching the fewest lines beats a branch-free sweep. Empty ways never
  // match a valid id.
  std::int32_t victim = 0;
  for (std::int32_t w = 0; w < ways_; ++w) {
    if (tags[w] == block) {
      const std::size_t line = base + static_cast<std::size_t>(w);
      meta_[line] = (tick_ << 1) | (meta_[line] & 1) | (write ? 1 : 0);
      return true;
    }
    if (tags[w] == kEmptyTag) {
      victim = w;
    } else if (w > 0 && tags[victim] != kEmptyTag &&
               meta_[base + static_cast<std::size_t>(w)] <
                   meta_[base + static_cast<std::size_t>(victim)]) {
      victim = w;
    }
  }
  const std::size_t line = base + static_cast<std::size_t>(victim);
  if (tags_[line] != kEmptyTag && (meta_[line] & 1) != 0) ++stats_.writebacks;
  tags_[line] = block;
  meta_[line] = (tick_ << 1) | (write ? 1 : 0);
  return false;
}

void SetAssociativeCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  ++stats_.accesses;
  if (touch_block(block_of(addr), mode == AccessMode::kWrite)) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
}

namespace {

/// Blocks per group in the set-associative bulk sweep. 8 on ISAs with
/// 256-bit+ vectors (AVX2/AVX-512), 4 elsewhere -- four independent 64-bit
/// lanes is what 128-bit vectors (SSE2/NEON) or plain scalar unrolling
/// sustain without spilling. A compile-time choice: the one-block body
/// handles group tails, so no build differs in any counter.
#if defined(__AVX512F__) || defined(__AVX2__)
constexpr int kProbeBatch = 8;
#else
constexpr int kProbeBatch = 4;
#endif

// Marks the way-compare loop as dependence-free so the vectorizer does not
// give up on it.
#if defined(__clang__)
#define CCS_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define CCS_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define CCS_SIMD_LOOP
#endif

}  // namespace

void SetAssociativeCache::do_access_blocks(BlockId first, std::int64_t count,
                                           AccessMode mode) {
  const bool write = mode == AccessMode::kWrite;
  std::int64_t hits = 0;
  constexpr std::int64_t kGroup = kProbeBatch;
  BlockId b = first;
  const BlockId e = first + count;

  // Consecutive blocks map to consecutive sets, so when a group of kGroup
  // blocks neither wraps the set index nor exceeds the set count, its tag
  // rows are one contiguous, mutually disjoint stretch of the tag plane:
  // probe them in a single dependence-free sweep (kGroup * ways_ compares),
  // then apply the per-block updates in order. Disjointness makes the
  // precomputed probe exact -- updating row i cannot change row j -- and
  // the tick stamps advance per block exactly as in the scalar loop.
  while (e - b >= kGroup) {
    const std::size_t set0 = set_index(b);
    if (set0 + kGroup > static_cast<std::size_t>(num_sets_)) {
      // Group would wrap past the last set; step one block scalar.
      hits += touch_block(b, write) ? 1 : 0;
      ++b;
      continue;
    }
    const BlockId* tags = tags_.data() + set0 * static_cast<std::size_t>(ways_);
    std::int32_t hit_way[kProbeBatch];
    for (std::int64_t i = 0; i < kGroup; ++i) {
      const BlockId* row = tags + i * ways_;
      std::int32_t found = -1;
      CCS_SIMD_LOOP
      for (std::int32_t w = 0; w < ways_; ++w) {
        if (row[w] == b + i) found = w;  // at most one way matches
      }
      hit_way[i] = found;
    }
    for (std::int64_t i = 0; i < kGroup; ++i) {
      ++tick_;
      const std::size_t base =
          (set0 + static_cast<std::size_t>(i)) * static_cast<std::size_t>(ways_);
      if (hit_way[i] >= 0) {
        ++hits;
        const std::size_t line = base + static_cast<std::size_t>(hit_way[i]);
        meta_[line] = (tick_ << 1) | (meta_[line] & 1) | (write ? 1 : 0);
      } else {
        fill_way(base, b + i, write);
      }
    }
    b += kGroup;
  }
  for (; b != e; ++b) {
    hits += touch_block(b, write) ? 1 : 0;
  }
  stats_.accesses += count;
  stats_.hits += hits;
  stats_.misses += count - hits;
  CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
}

void SetAssociativeCache::flush() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kEmptyTag && (meta_[i] & 1) != 0) ++stats_.writebacks;
  }
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  std::fill(meta_.begin(), meta_.end(), std::uint64_t{0});
}

void SetAssociativeCache::audit_invariants() const {
  CCS_CHECK(stats_.hits + stats_.misses == stats_.accesses,
            "hit/miss split disagrees with the access count");
  for (std::int64_t set = 0; set < num_sets_; ++set) {
    const std::size_t base =
        static_cast<std::size_t>(set) * static_cast<std::size_t>(ways_);
    for (std::int32_t w = 0; w < ways_; ++w) {
      const BlockId tag = tags_[base + static_cast<std::size_t>(w)];
      if (tag == kEmptyTag) continue;
      CCS_CHECK(tag >= 0, "resident tag holds an invalid block id");
      CCS_CHECK(set_index(tag) == static_cast<std::size_t>(set),
                "resident tag indexes a different set");
      CCS_CHECK(meta_[base + static_cast<std::size_t>(w)] >> 1 <= tick_,
                "recency stamp is newer than the current tick");
      for (std::int32_t w2 = w + 1; w2 < ways_; ++w2) {
        CCS_CHECK(tags_[base + static_cast<std::size_t>(w2)] != tag,
                  "one block resident in two ways of a set");
      }
    }
  }
}

bool SetAssociativeCache::contains(Addr addr) const {
  const BlockId block = addr / config_.block_words;
  const std::size_t base = set_index(block) * static_cast<std::size_t>(ways_);
  const BlockId* tags = tags_.data() + base;
  for (std::int32_t w = 0; w < ways_; ++w) {
    if (tags[w] == block) return true;
  }
  return false;
}

std::unique_ptr<CacheSim> make_lru(std::int64_t capacity_words, std::int64_t block_words) {
  return std::make_unique<LruCache>(CacheConfig{capacity_words, block_words});
}

std::unique_ptr<CacheSim> make_set_associative(std::int64_t capacity_words,
                                               std::int64_t block_words, std::int32_t ways) {
  return std::make_unique<SetAssociativeCache>(CacheConfig{capacity_words, block_words}, ways);
}

}  // namespace ccs::iomodel
