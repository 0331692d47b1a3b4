#include "iomodel/opt_cache.h"

#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "util/contract.h"

namespace ccs::iomodel {

std::int64_t opt_misses(const std::vector<BlockId>& block_trace,
                        std::int64_t capacity_blocks) {
  CCS_EXPECTS(capacity_blocks >= 1, "cache must hold at least one block");
  const std::size_t n = block_trace.size();

  // next_use[i] = next position after i touching the same block (n if none).
  std::vector<std::size_t> next_use(n);
  std::unordered_map<BlockId, std::size_t> last_seen;
  for (std::size_t i = n; i-- > 0;) {
    const auto it = last_seen.find(block_trace[i]);
    next_use[i] = it == last_seen.end() ? n : it->second;
    last_seen[block_trace[i]] = i;
  }

  // Max-heap of (next_use, block) for resident blocks; lazily invalidated.
  // Ties on next_use (only possible at the never-used-again sentinel n, since
  // real next-use positions are unique) are broken toward the LOWEST block id
  // -- the choice cannot change the miss count, but pinning it keeps the
  // eviction sequence reproducible across stdlib heap implementations.
  using Entry = std::pair<std::size_t, BlockId>;
  struct FurthestThenLowestBlock {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;  // reversed: top() prefers the lowest id
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, FurthestThenLowestBlock> heap;
  std::unordered_map<BlockId, std::size_t> resident;  // block -> its current next_use
  std::int64_t misses = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const BlockId b = block_trace[i];
    const auto it = resident.find(b);
    if (it != resident.end()) {
      it->second = next_use[i];
      heap.push(Entry{next_use[i], b});
      continue;
    }
    ++misses;
    if (static_cast<std::int64_t>(resident.size()) == capacity_blocks) {
      // Evict the block whose next use is furthest in the future, skipping
      // stale heap entries.
      while (true) {
        CCS_CHECK(!heap.empty(), "resident set non-empty implies heap entries");
        const auto [use, victim] = heap.top();
        heap.pop();
        const auto rit = resident.find(victim);
        if (rit != resident.end() && rit->second == use) {
          resident.erase(rit);
          break;
        }
      }
    }
    resident[b] = next_use[i];
    heap.push(Entry{next_use[i], b});
  }
  return misses;
}

std::vector<BlockId> to_block_trace(const std::vector<Addr>& addr_trace,
                                    std::int64_t block_words) {
  CCS_EXPECTS(block_words > 0, "block size must be positive");
  std::vector<BlockId> out;
  out.reserve(addr_trace.size());
  for (const Addr a : addr_trace) {
    CCS_EXPECTS(a >= 0, "negative address in trace");
    out.push_back(a / block_words);
  }
  return out;
}

}  // namespace ccs::iomodel
