// Cache simulators for the I/O model.
//
// CacheSim is the interface the streaming runtime drives; implementations:
//  * LruCache          -- fully associative LRU (the paper's analysis model;
//                         an ideal cache in the sense of Frigo et al.)
//  * SetAssociativeCache -- k-way set-associative LRU, for checking that the
//                         paper's conclusions survive on realistic geometry.
//
// All implementations count *block transfers*: an access to an uncached
// block is one miss; evicting a dirty block is one writeback.
//
// Hot path: the runtime touches memory in contiguous spans (channel ring
// segments, module state regions), so CacheSim exposes a block-granular bulk
// API -- access_blocks() and the word-range wrapper access_span() -- that
// costs one simulated access per block with a single virtual dispatch per
// span. Both entries are inline (most spans are one block, so call overhead
// matters). Every implementation provides do_access_blocks() and runs the
// whole span through its non-virtual per-block fast path.
// Bulk and per-access paths produce bit-identical CacheStats and
// replacement state (tests/iomodel/bulk_access_test.cc checks this
// differentially). LruCache additionally exposes its bulk loop as
// access_blocks_noting_misses(), which reports the span's missed blocks in
// order -- how a two-level worker cache runs whole spans through its private
// level and forwards only the misses to the shared level.
//
// Rescans: every firing scans its module's whole state region, and between
// two scans of one region the region usually stays resident, contiguous and
// in scan order at the MRU end. LruCache remembers the last multi-block span
// that left each node at the head (its *run plane*) and applies an exact
// rescan of an intact run as one O(1) list splice instead of one probe and
// one relink per block -- see LruCache::Run for why that is bit-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "iomodel/types.h"

namespace ccs::iomodel {

/// Abstract word-addressed cache.
class CacheSim {
 public:
  virtual ~CacheSim() = default;

  /// Block size shared by every level/way of this cache, in words.
  std::int64_t block_words() const noexcept { return block_words_; }

  /// Touches one word; loads the containing block on a miss.
  virtual void access(Addr addr, AccessMode mode) = 0;

  /// Touches `count` consecutive blocks starting at `first`: one simulated
  /// access per block, in ascending order. Equivalent to (but much cheaper
  /// than) calling access(b * B, mode) for each block b.
  void access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
    CCS_EXPECTS(first >= 0, "negative block id");
    CCS_EXPECTS(count >= 0, "negative block count");
    CCS_EXPECTS(first <= kMaxInt64 - count, "block range overflows");
    if (count == 0) return;
    // Every block in the range must have an addressable first word, so the
    // bulk path and the word-at-a-time reference agree on their domain.
    CCS_EXPECTS(first + count - 1 <= max_block_, "block range exceeds address space");
    do_access_blocks(first, count, mode);
  }

  /// Word-range wrapper around access_blocks(): one simulated access per
  /// block overlapping [addr, addr + words). This is how the runtime touches
  /// a contiguous span -- identical misses and recency order to touching
  /// every word, at O(words/B) simulator work.
  void access_span(Addr addr, std::int64_t words, AccessMode mode) {
    CCS_EXPECTS(addr >= 0, "negative address");
    CCS_EXPECTS(words >= 0, "negative span length");
    CCS_EXPECTS(addr <= kMaxInt64 - words, "span overflows address space");
    if (words == 0) return;
    const BlockId first = block_of(addr);
    access_blocks(first, block_of(addr + words - 1) - first + 1, mode);
  }

  /// Evicts everything (dirty blocks count as writebacks). Statistics are
  /// preserved; only contents are dropped.
  virtual void flush() = 0;

  /// True if the containing block is resident.
  virtual bool contains(Addr addr) const = 0;

  /// Cumulative transfer counters. The returned reference must stay valid
  /// for the cache's lifetime and track subsequent accesses live (callers
  /// such as the runtime engine hold it across accesses and re-read the
  /// counters for per-phase deltas) — return a reference to the internal
  /// counters, not to a lazily assembled snapshot.
  virtual const CacheStats& stats() const = 0;

  /// Geometry this cache was built with.
  virtual const CacheConfig& config() const = 0;

 protected:
  /// `block_words` must match config().block_words; the base class caches it
  /// (plus its log2 when it is a power of two) so the span-to-block
  /// arithmetic on the hot path needs no virtual dispatch and no division.
  explicit CacheSim(std::int64_t block_words);

  /// Block containing a (non-negative) word address.
  BlockId block_of(Addr addr) const {
    return block_shift_ >= 0 ? addr >> block_shift_ : addr / block_words_;
  }

  /// Bulk implementation hook; called with a validated, non-empty range.
  /// Must touch the blocks exactly as one access() per block in ascending
  /// order would.
  virtual void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) = 0;

 private:
  static constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();

  std::int64_t block_words_;
  std::int32_t block_shift_;  // log2(block_words), or -1 if not a power of two
  std::int64_t max_block_;    // kMaxInt64 / block_words_: last block with an addressable word
};

/// Fully associative LRU with write-back/write-allocate.
///
/// Replacement state is an intrusive doubly-linked list threaded through a
/// flat node slab, indexed by an open-addressing (linear probing, backward-
/// shift deletion) hash table. The table is sized for the full capacity at
/// construction for ordinary geometries, so the steady state performs zero
/// heap allocations; absurdly large capacities start small and double
/// geometrically, which is still allocation-free once the working set
/// stabilizes.
///
/// A fourth plane, the run plane, memoizes multi-block spans so that an
/// exact rescan of a still-intact span costs O(1) (see Run).
class LruCache final : public CacheSim {
 public:
  explicit LruCache(const CacheConfig& config);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;
  const CacheStats& stats() const override { return stats_; }
  const CacheConfig& config() const override { return config_; }

  /// Touches one whole block (one simulated access); returns true on a hit.
  /// Non-virtual hot path used by the bulk API and HierarchyCache.
  bool access_block(BlockId block, AccessMode mode) {
    CCS_EXPECTS(block >= 0, "negative block id");
    ++stats_.accesses;
    const bool hit = touch_block(block, mode == AccessMode::kWrite);
    hit ? ++stats_.hits : ++stats_.misses;
    return hit;
  }

  /// Non-virtual, unpriced bulk entry: touches `count` consecutive blocks
  /// from `first` exactly as access_blocks() does (same loop, counters and
  /// replacement order) and, when `misses` is non-null, appends each missed
  /// block id to it in access order. SharedLlcCache passes a buffer to
  /// learn which blocks to forward to its shared LLC.
  void access_blocks_noting_misses(BlockId first, std::int64_t count, AccessMode mode,
                                   std::vector<BlockId>* misses);

  /// Blocks currently resident (for tests).
  std::int64_t resident_blocks() const { return size_; }

  /// Heavy cross-consistency walk of the four replacement-state planes:
  /// the recency list visits exactly size_ nodes with consistent back links
  /// and closes on the sentinel, every resident block is findable through
  /// the open-addressing table, and the table holds exactly size_ live
  /// entries. On the run plane, every run's live count equals the number of
  /// nodes tagged with it, every intact run walks from top to bottom over
  /// blocks first + count - 1 down to first, and the free records are
  /// exactly the runs with no tagged node. O(capacity + table). Throws
  /// ContractViolation on the first inconsistency. Audit builds
  /// (-DCCS_AUDIT=ON) run it automatically at sampled bulk-access
  /// boundaries (rescan splices included) and at flush; tests may call it
  /// in any build.
  void audit_invariants() const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  static constexpr std::int32_t kNil = -1;
  static constexpr std::int32_t kNoRun = -1;

  /// One block's replacement state. slab_[0] is a sentinel that closes the
  /// recency list into a circle (sentinel.next = MRU, sentinel.prev = LRU),
  /// so relinking needs no nil/head/tail branches. Live nodes are exactly
  /// slab_[1 .. size_]. `run` is the run the node was last tagged with by a
  /// bulk span, or kNoRun.
  struct Node {
    BlockId block;
    std::int32_t prev;
    std::int32_t next;
    std::int32_t run;
    bool dirty;
  };
  static_assert(sizeof(Node) == 24, "the run tag must fit in Node's padding");

  /// The run plane's memo: a bulk span of 2 <= count <= capacity blocks
  /// leaves its blocks at the MRU end in descending order, so the recency
  /// list reads top = node of block first + count - 1, then first +
  /// count - 2, ..., down to bottom = node of block first. The slow loop
  /// records that as a Run, tagging each node as it reaches the head (the
  /// probe of the first block doubles as the memo lookup, so recording
  /// costs the slow path no extra table probe).
  ///
  /// Invariant: `live` counts the nodes still tagged with the run. Every
  /// relink or eviction of a member node other than the rescan splice
  /// untags it and decrements `live` -- and `live` never grows after the
  /// run is recorded -- so `live == count` proves that no member has moved
  /// or left since: the members are still resident, still contiguous (new
  /// and relinked nodes only ever enter at the head, never between two
  /// members) and still in scan order.
  ///
  /// Rescan: a span of exactly (first, count) whose first block is the
  /// bottom of an intact run is applied as one splice of [top..bottom] to
  /// the MRU end, `count` accesses and hits, and (for writes) the members'
  /// dirty bits. That is bit-identical to the per-block loop: count
  /// ascending move-to-fronts of blocks that are all resident and already
  /// in this order leave exactly the spliced list, no block misses, so the
  /// table, every counter, the residency and the replacement order match.
  /// It needs no LLC either: an all-hit span forwards no misses.
  struct Run {
    BlockId first;
    std::int32_t count;
    std::int32_t top;
    std::int32_t bottom;
    std::int32_t live;
  };

  std::size_t home_slot(BlockId block) const {
    // Fibonacci hashing: multiply spreads nearby block ids, the top bits
    // index the power-of-two table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(block) * 0x9e3779b97f4a7c15ULL) >> table_shift_);
  }

  /// Hit/miss/eviction core; updates everything except the accesses/hits/
  /// misses counters (callers batch those so span loops are not serialized
  /// on read-modify-write chains). Returns true on a hit. Untags the node it
  /// relinks or evicts; the node it leaves at the head is untagged.
  bool touch_block(BlockId block, bool write);

  /// The one bulk entry behind do_access_blocks() and
  /// access_blocks_noting_misses(): applies a rescan of an intact run as a
  /// splice, else runs span_loop. kNoteMisses only decides whether missed
  /// ids are appended to `misses`, so the no-buffer instantiation carries
  /// no per-miss test.
  template <bool kNoteMisses>
  void bulk_loop(BlockId first, std::int64_t count, AccessMode mode,
                 std::vector<BlockId>* misses);

  /// The per-block loop. kRecord: the span records run `recorded`, and
  /// `first_idx` is its first block's already-probed node (or kNil); the
  /// non-recording instantiation keeps the tag a compile-time constant, so
  /// spans outside the memo pay no register for it.
  template <bool kNoteMisses, bool kRecord>
  void span_loop(BlockId first, std::int64_t count, bool write,
                 std::vector<BlockId>* misses, std::int32_t recorded,
                 std::int32_t first_idx);

  /// Applies a rescan of the intact run `r` (see Run).
  void splice_run(const Run& r, bool write);

  /// A fresh run record for (first, count) with no members yet.
  std::int32_t open_run(BlockId first, std::int64_t count);

  /// One member of run `r` moved or left: the run is broken for good, and
  /// its record is freed once its last member has left.
  void leave_run(std::int32_t r) {
    if (--runs_[static_cast<std::size_t>(r)].live == 0) [[unlikely]] free_run(r);
  }

  /// Returns the record of a run whose last member has left to the free
  /// list. Out of line: the relink loops inline leave_run, and an inlined
  /// vector growth path would cost them registers on every block.
  [[gnu::noinline]] void free_run(std::int32_t r) { free_runs_.push_back(r); }

  void move_to_front(std::int32_t idx);
  std::size_t find_slot(BlockId block) const;
  void erase_slot(std::size_t slot);
  void grow_table();

  CacheConfig config_;
  std::int64_t capacity_blocks_;
  CacheStats stats_;
  std::vector<Node> slab_;
  std::vector<std::int32_t> table_;  // node index or kNil
  std::size_t table_mask_ = 0;
  std::int32_t table_shift_ = 64;    // 64 - log2(table size)
  std::int64_t size_ = 0;

  /// Run plane: records indexed by Node::run, and the indices of the free
  /// records (live == 0). Every live record has at least one tagged node,
  /// so both stay O(capacity) and stop allocating once the working set is
  /// stable.
  std::vector<Run> runs_;
  std::vector<std::int32_t> free_runs_;

  /// Run-recording gate, pure strategy state: whether a span consults and
  /// records the memo changes only whether a later rescan may take the
  /// (bit-identical) splice, never a counter. Recording costs
  /// the slow loop a memo probe up front, a tag per block and a leave_run
  /// per member later on, which random spans that never repeat intact
  /// (BM_LruHot's shape) would pay in full. So recording spends one credit,
  /// each rescan splice earns kRunReward (saturating at kRunCreditMax), and
  /// with no credit left only every (kRunExploreMask + 1)-th eligible span
  /// consults and records -- enough for a rescan-heavy phase to re-open the
  /// gate, while a random phase runs the plain loop.
  static constexpr std::int32_t kRunReward = 2;
  static constexpr std::int32_t kRunCreditMax = 64;
  static constexpr std::uint32_t kRunExploreMask = 63;
  std::int32_t run_credit_ = kRunCreditMax;
  std::uint32_t run_explore_ = 0;

  /// Audit-mode sampling counter: a full audit_invariants() walk per bulk
  /// call would turn O(n) runs into O(n^2), so audit builds walk every
  /// 64th bulk boundary. Unused (but harmless) outside audit builds.
  [[maybe_unused]] std::int64_t audit_tick_ = 0;
};

/// k-way set-associative LRU. `ways == 1` gives a direct-mapped cache.
///
/// Line state is stored structure-of-arrays, row-major by set: a tag plane
/// (kEmptyTag = -1 marks an empty way; block ids are non-negative, so empty
/// ways never match without a separate valid-bit check) and a meta plane
/// packing each way's recency stamp and dirty bit into one word. The bulk
/// path probes kProbeBatch consecutive sets' tag rows -- one
/// contiguous, dependence-free compare sweep -- per group; the single-access
/// path keeps the classic one-pass early-exit scan, which wins when the
/// simulator's own memory traffic (not the compare loop) dominates.
class SetAssociativeCache final : public CacheSim {
 public:
  /// Requires capacity_blocks % ways == 0 and a power-of-two set count (so
  /// the index function is a mask, as in real hardware).
  SetAssociativeCache(const CacheConfig& config, std::int32_t ways);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;
  const CacheStats& stats() const override { return stats_; }
  const CacheConfig& config() const override { return config_; }

  std::int32_t ways() const noexcept { return ways_; }
  std::int64_t sets() const noexcept { return num_sets_; }

  /// Heavy walk of the tag/meta planes: every resident tag indexes its own
  /// set, no set holds a duplicate tag, and no recency stamp is newer than
  /// the current tick. Throws ContractViolation on the first inconsistency.
  /// Audit builds run it at bulk-access and flush boundaries.
  void audit_invariants() const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  static constexpr BlockId kEmptyTag = -1;

  std::size_t set_index(BlockId block) const {
    return static_cast<std::size_t>(block & (num_sets_ - 1));
  }

  /// Hit/miss/eviction core; returns true on a hit. Callers batch the
  /// accesses/hits/misses counters.
  bool touch_block(BlockId block, bool write);

  /// Miss handling for a probed set row: victim choice, writeback count,
  /// fill. `base` indexes the row, tick_ has already been advanced.
  void fill_way(std::size_t base, BlockId block, bool write);

  CacheConfig config_;
  std::int32_t ways_;
  std::int64_t num_sets_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  // Structure-of-arrays line state, num_sets_ * ways_ entries row-major by
  // set: tags_[base + w] pairs with meta_[base + w]. Meta packs the recency
  // stamp above the dirty bit -- (tick << 1) | dirty -- so LRU victim
  // selection is one integer compare (stamps are unique, the stamp field
  // dominates) and a line's whole state is two planes, not three.
  std::vector<BlockId> tags_;           // kEmptyTag = way is empty
  std::vector<std::uint64_t> meta_;     // (last-use tick << 1) | dirty

  /// Audit-mode sampling counter (see LruCache::audit_tick_).
  [[maybe_unused]] std::int64_t audit_tick_ = 0;
};

/// Factory helpers.
std::unique_ptr<CacheSim> make_lru(std::int64_t capacity_words, std::int64_t block_words);
std::unique_ptr<CacheSim> make_set_associative(std::int64_t capacity_words,
                                               std::int64_t block_words, std::int32_t ways);

}  // namespace ccs::iomodel
