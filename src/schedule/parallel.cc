#include "schedule/parallel.h"

#include <algorithm>
#include <queue>

#include "iomodel/cache.h"
#include "iomodel/layout.h"
#include "sdf/topology.h"
#include "util/contract.h"
#include "util/error.h"
#include "util/stats.h"

namespace ccs::schedule {

double ParallelResult::imbalance() const { return busy_imbalance(worker_busy); }

namespace {

/// Shared memory image: one global layout for state and channel rings, so a
/// component executing on any worker touches the same addresses (moving a
/// component between workers therefore reloads its state on the new
/// worker's private cache, as on a real multicore).
struct SharedImage {
  explicit SharedImage(std::int64_t block_words) : layout(block_words) {}

  iomodel::MemoryLayout layout;
  std::vector<iomodel::Region> state;        // per node
  std::vector<iomodel::Region> ring;         // per edge
  std::vector<std::int64_t> ring_cap;        // per edge (tokens)
  std::vector<std::int64_t> head;            // per edge: absolute pop position
  std::vector<std::int64_t> tail;            // per edge: absolute push position
};

/// Touches the blocks of ring positions [from, from+count) (absolute,
/// wrapped modulo capacity) on `cache`.
void touch_ring(const SharedImage& image, sdf::EdgeId e, std::int64_t from,
                std::int64_t count, iomodel::CacheSim& cache, iomodel::AccessMode mode) {
  const auto ei = static_cast<std::size_t>(e);
  const std::int64_t cap = image.ring_cap[ei];
  const std::int64_t block = cache.config().block_words;
  std::int64_t pos = from % cap;
  std::int64_t remaining = count;
  while (remaining > 0) {
    const std::int64_t run = std::min(remaining, cap - pos);
    const iomodel::Addr first = image.ring[ei].base + pos;
    const iomodel::Addr last = first + run - 1;
    for (iomodel::BlockId b = first / block; b <= last / block; ++b) {
      cache.access(std::max(first, b * block), mode);
    }
    remaining -= run;
    pos = (pos + run) % cap;
  }
}

}  // namespace

ParallelResult simulate_parallel_homogeneous(const sdf::SdfGraph& g,
                                             const partition::Partition& p, std::int64_t m,
                                             std::span<iomodel::CacheSim* const> worker_caches,
                                             std::int64_t min_outputs) {
  const std::int32_t workers = static_cast<std::int32_t>(worker_caches.size());
  CCS_EXPECTS(workers >= 1, "need at least one worker");
  for (const iomodel::CacheSim* cache : worker_caches) {
    CCS_EXPECTS(cache != nullptr, "null worker cache");
  }
  const std::int64_t block_words = worker_caches.front()->config().block_words;
  for (const iomodel::CacheSim* cache : worker_caches) {
    CCS_EXPECTS(cache->config().block_words == block_words,
                "worker caches must share one block size");
  }
  CCS_EXPECTS(m > 0 && min_outputs > 0, "invalid parallel simulation parameters");
  if (!g.is_homogeneous()) {
    throw Error("parallel component scheduling requires a homogeneous graph");
  }
  if (!partition::is_well_ordered(g, p)) {
    throw Error("parallel scheduling requires a well-ordered partition");
  }
  const partition::Partition topo_p = partition::renumber_topological(g, p);
  const auto global_topo = sdf::topological_sort(g);
  const std::int32_t k = topo_p.num_components;

  std::vector<std::vector<sdf::NodeId>> members(static_cast<std::size_t>(k));
  for (const sdf::NodeId v : global_topo) {
    members[static_cast<std::size_t>(topo_p.comp(v))].push_back(v);
  }

  // Shared memory image: block-aligned state, packed rings. Cross edges get
  // M tokens of ring; internal edges one burst (homogeneous: one word).
  SharedImage image(block_words);
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    image.state.push_back(image.layout.allocate(g.node(v).state, "state:" + g.node(v).name));
  }
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const bool cross = topo_p.comp(g.edge(e).src) != topo_p.comp(g.edge(e).dst);
    const std::int64_t cap = cross ? m : 1;
    image.ring_cap.push_back(cap);
    image.ring.push_back(image.layout.allocate(cap, "ring:" + std::to_string(e), false));
  }
  image.head.assign(static_cast<std::size_t>(g.edge_count()), 0);
  image.tail.assign(static_cast<std::size_t>(g.edge_count()), 0);

  // Committed token counts per edge (tail - head of completed batches).
  std::vector<std::int64_t> tokens(static_cast<std::size_t>(g.edge_count()), 0);
  std::vector<bool> running(static_cast<std::size_t>(k), false);

  auto schedulable = [&](std::int32_t c) {
    if (running[static_cast<std::size_t>(c)]) return false;
    for (const sdf::NodeId v : members[static_cast<std::size_t>(c)]) {
      for (const sdf::EdgeId e : g.in_edges(v)) {
        if (topo_p.comp(g.edge(e).src) != c && tokens[static_cast<std::size_t>(e)] < m) {
          return false;
        }
      }
      for (const sdf::EdgeId e : g.out_edges(v)) {
        if (topo_p.comp(g.edge(e).dst) != c && tokens[static_cast<std::size_t>(e)] != 0) {
          return false;
        }
      }
    }
    return true;
  };

  ParallelResult result;
  result.workers = workers;
  result.worker_misses.assign(static_cast<std::size_t>(workers), 0);
  result.worker_busy.assign(static_cast<std::size_t>(workers), 0);
  result.worker_batches.assign(static_cast<std::size_t>(workers), 0);

  struct Completion {
    std::int64_t time;
    std::int32_t worker;
    std::int32_t comp;
    bool operator>(const Completion& other) const { return time > other.time; }
  };
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions;
  std::vector<std::int64_t> worker_free(static_cast<std::size_t>(workers), 0);
  std::vector<bool> worker_idle(static_cast<std::size_t>(workers), true);

  const sdf::NodeId sink = g.sinks().front();
  std::int64_t sink_fired = 0;
  std::int64_t now = 0;

  // Executes component c's batch on worker w's private cache, returning the
  // firing count (= execution time units). Memory effects happen here; the
  // token-count commit is done by the caller at completion time.
  auto execute = [&](std::int32_t c, std::int32_t w) -> std::int64_t {
    iomodel::CacheSim& cache = *worker_caches[static_cast<std::size_t>(w)];
    const std::int64_t block = block_words;
    std::int64_t firings = 0;
    for (std::int64_t iter = 0; iter < m; ++iter) {
      for (const sdf::NodeId v : members[static_cast<std::size_t>(c)]) {
        for (const sdf::EdgeId e : g.in_edges(v)) {
          touch_ring(image, e, image.head[static_cast<std::size_t>(e)]++, 1, cache,
                     iomodel::AccessMode::kRead);
        }
        const iomodel::Region& st = image.state[static_cast<std::size_t>(v)];
        for (iomodel::Addr a = st.base; a < st.end(); a += block) {
          cache.access(a, iomodel::AccessMode::kRead);
        }
        for (const sdf::EdgeId e : g.out_edges(v)) {
          touch_ring(image, e, image.tail[static_cast<std::size_t>(e)]++, 1, cache,
                     iomodel::AccessMode::kWrite);
        }
        ++firings;
      }
    }
    return firings;
  };

  auto try_dispatch = [&]() {
    for (std::int32_t w = 0; w < workers; ++w) {
      if (!worker_idle[static_cast<std::size_t>(w)]) continue;
      for (std::int32_t c = 0; c < k; ++c) {
        if (!schedulable(c)) continue;
        // Reserve: claim tokens logically now so no other worker doubles up.
        running[static_cast<std::size_t>(c)] = true;
        for (const sdf::NodeId v : members[static_cast<std::size_t>(c)]) {
          for (const sdf::EdgeId e : g.in_edges(v)) {
            if (topo_p.comp(g.edge(e).src) != c) tokens[static_cast<std::size_t>(e)] -= m;
          }
        }
        const std::int64_t misses_before =
            worker_caches[static_cast<std::size_t>(w)]->stats().misses;
        const std::int64_t duration = execute(c, w);
        result.worker_misses[static_cast<std::size_t>(w)] +=
            worker_caches[static_cast<std::size_t>(w)]->stats().misses - misses_before;
        result.worker_busy[static_cast<std::size_t>(w)] += duration;
        ++result.worker_batches[static_cast<std::size_t>(w)];
        result.total_firings += duration;
        worker_idle[static_cast<std::size_t>(w)] = false;
        completions.push(Completion{now + duration, w, c});
        break;
      }
    }
  };

  try_dispatch();
  while (sink_fired < min_outputs) {
    if (completions.empty()) {
      throw DeadlockError("parallel scheduler stalled: no component schedulable "
                          "(is some component's state larger than a worker cache?)");
    }
    const Completion done = completions.top();
    completions.pop();
    now = done.time;
    // Commit outputs.
    for (const sdf::NodeId v : members[static_cast<std::size_t>(done.comp)]) {
      for (const sdf::EdgeId e : g.out_edges(v)) {
        if (topo_p.comp(g.edge(e).dst) != done.comp) {
          tokens[static_cast<std::size_t>(e)] += m;
        }
      }
    }
    if (topo_p.comp(sink) == done.comp) sink_fired += m;
    running[static_cast<std::size_t>(done.comp)] = false;
    worker_idle[static_cast<std::size_t>(done.worker)] = true;
    try_dispatch();
  }

  result.makespan = now;
  result.outputs = sink_fired;
  for (const auto misses : result.worker_misses) result.total_misses += misses;
  return result;
}

}  // namespace ccs::schedule
