#include "session/swap.h"

#include <algorithm>
#include <array>
#include <utility>

#include "latency/histogram.h"
#include "util/contract.h"
#include "util/error.h"

namespace ccs::session {

namespace {

// Image layout (all integers LEB128 varints; signed fields zigzagged):
//   magic, version,
//   engine: n_channels, heads[n], sizes[n], n_nodes, fired[n],
//           input_credit, in_cursor, out_cursor,
//           source_firings, sink_firings, total_firings,
//           state_misses, channel_misses, io_misses,
//   totals: accesses, hits, misses, writebacks,
//           firings, source_firings, sink_firings,
//           state_misses, channel_misses, io_misses,
//           n_node_misses, node_misses[n],
//   steps,
//   cost, latency histogram: n_buckets, buckets[n], max, sum   (v2).
constexpr std::uint64_t kMagic = 0xCC5;  // "CCS" session image
// v2 appended the modeled cost and latency histogram after steps so a
// swap-out -> rehydrate round trip preserves tail-percentile state exactly.
constexpr std::uint64_t kVersion = 2;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_varint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_uvarint(out, zigzag(v));
}

/// Sequential varint reader over an image's bytes; throws on truncation.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(&bytes) {}

  std::uint64_t get_uvarint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= bytes_->size()) {
        throw Error("corrupt swap image: truncated varint");
      }
      const std::uint8_t b = (*bytes_)[pos_++];
      // shift == 63 may only carry the top bit; shift >= 64 means an 11th
      // byte, which no 64-bit value produces. The >= 64 arm also stops a
      // zero-payload continuation byte (0x80) at shift 63 from reaching an
      // undefined shift-by-70 (found by UBSan's bit-flip sweep).
      if (shift >= 64 || (shift == 63 && (b & 0x7E) != 0)) {
        throw Error("corrupt swap image: varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t get_varint() { return unzigzag(get_uvarint()); }

  bool exhausted() const noexcept { return pos_ == bytes_->size(); }

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;
};

void put_signed_vector(std::vector<std::uint8_t>& out,
                       const std::vector<std::int64_t>& v) {
  put_uvarint(out, v.size());
  for (const std::int64_t x : v) put_varint(out, x);
}

std::vector<std::int64_t> get_signed_vector(Reader& r) {
  const std::uint64_t n = r.get_uvarint();
  // A plausibility cap: a graph with more than 2^32 nodes/edges would have
  // exhausted memory long before an image was packed.
  if (n > (std::uint64_t{1} << 32)) {
    throw Error("corrupt swap image: implausible vector length");
  }
  std::vector<std::int64_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.get_varint());
  return v;
}

}  // namespace

SwapImage SwapImage::pack(const SessionSnapshot& snapshot) {
  const runtime::EngineState& e = snapshot.engine;
  CCS_EXPECTS(e.channel_heads.size() == e.channel_sizes.size(),
              "engine state has mismatched channel vectors");
  SwapImage image;
  std::vector<std::uint8_t>& out = image.bytes_;
  put_uvarint(out, kMagic);
  put_uvarint(out, kVersion);

  put_uvarint(out, e.channel_heads.size());
  for (const std::int64_t h : e.channel_heads) put_varint(out, h);
  for (const std::int64_t s : e.channel_sizes) put_varint(out, s);
  put_signed_vector(out, e.fired);
  put_varint(out, e.input_credit);
  put_varint(out, e.external_in_cursor);
  put_varint(out, e.external_out_cursor);
  put_varint(out, e.source_firings);
  put_varint(out, e.sink_firings);
  put_varint(out, e.total_firings);
  put_varint(out, e.state_misses);
  put_varint(out, e.channel_misses);
  put_varint(out, e.io_misses);

  const runtime::RunResult& t = snapshot.totals;
  put_varint(out, t.cache.accesses);
  put_varint(out, t.cache.hits);
  put_varint(out, t.cache.misses);
  put_varint(out, t.cache.writebacks);
  put_varint(out, t.firings);
  put_varint(out, t.source_firings);
  put_varint(out, t.sink_firings);
  put_varint(out, t.state_misses);
  put_varint(out, t.channel_misses);
  put_varint(out, t.io_misses);
  put_signed_vector(out, t.node_misses);

  put_varint(out, snapshot.steps);

  put_varint(out, t.cost);
  const latency::Histogram& h = t.latency;
  std::vector<std::int64_t> buckets(h.buckets().begin(), h.buckets().end());
  put_signed_vector(out, buckets);
  put_varint(out, h.max());
  put_varint(out, h.sum());
  return image;
}

SessionSnapshot SwapImage::unpack() const {
  Reader r(bytes_);
  if (r.get_uvarint() != kMagic) throw Error("corrupt swap image: bad magic");
  const std::uint64_t version = r.get_uvarint();
  if (version != kVersion) {
    throw Error("unsupported swap image version " + std::to_string(version));
  }

  SessionSnapshot snapshot;
  runtime::EngineState& e = snapshot.engine;
  const std::uint64_t channels = r.get_uvarint();
  if (channels > (std::uint64_t{1} << 32)) {
    throw Error("corrupt swap image: implausible channel count");
  }
  e.channel_heads.reserve(static_cast<std::size_t>(channels));
  for (std::uint64_t i = 0; i < channels; ++i) e.channel_heads.push_back(r.get_varint());
  e.channel_sizes.reserve(static_cast<std::size_t>(channels));
  for (std::uint64_t i = 0; i < channels; ++i) e.channel_sizes.push_back(r.get_varint());
  e.fired = get_signed_vector(r);
  e.input_credit = r.get_varint();
  e.external_in_cursor = r.get_varint();
  e.external_out_cursor = r.get_varint();
  e.source_firings = r.get_varint();
  e.sink_firings = r.get_varint();
  e.total_firings = r.get_varint();
  e.state_misses = r.get_varint();
  e.channel_misses = r.get_varint();
  e.io_misses = r.get_varint();

  runtime::RunResult& t = snapshot.totals;
  t.cache.accesses = r.get_varint();
  t.cache.hits = r.get_varint();
  t.cache.misses = r.get_varint();
  t.cache.writebacks = r.get_varint();
  t.firings = r.get_varint();
  t.source_firings = r.get_varint();
  t.sink_firings = r.get_varint();
  t.state_misses = r.get_varint();
  t.channel_misses = r.get_varint();
  t.io_misses = r.get_varint();
  t.node_misses = get_signed_vector(r);

  snapshot.steps = r.get_varint();

  t.cost = r.get_varint();
  const std::vector<std::int64_t> bucket_vec = get_signed_vector(r);
  if (bucket_vec.size() != static_cast<std::size_t>(latency::Histogram::kBucketCount)) {
    throw Error("corrupt swap image: bad histogram bucket count");
  }
  std::array<std::int64_t, latency::Histogram::kBucketCount> buckets{};
  std::copy(bucket_vec.begin(), bucket_vec.end(), buckets.begin());
  const std::int64_t max = r.get_varint();
  const std::int64_t sum = r.get_varint();
  // from_state re-validates the derived invariants (non-negative buckets,
  // max in the topmost occupied bucket) and throws ccs::Error otherwise.
  t.latency = latency::Histogram::from_state(buckets, max, sum);

  if (!r.exhausted()) throw Error("corrupt swap image: trailing bytes");
  return snapshot;
}

void SwapManager::admit(SessionKey key) {
  CCS_EXPECTS(position_.find(key) == position_.end(), "session already resident");
  CCS_EXPECTS(images_.find(key) == images_.end(), "session is swapped out");
  lru_.push_back(key);
  position_.emplace(key, std::prev(lru_.end()));
}

void SwapManager::touch(SessionKey key) {
  const auto it = position_.find(key);
  if (it == position_.end()) return;
  lru_.splice(lru_.end(), lru_, it->second);
}

void SwapManager::erase(SessionKey key) {
  const auto it = position_.find(key);
  if (it != position_.end()) {
    lru_.erase(it->second);
    position_.erase(it);
  }
  const auto im = images_.find(key);
  if (im != images_.end()) {
    stored_bytes_ -= im->second.size_bytes();
    images_.erase(im);
  }
}

SwapManager::SessionKey SwapManager::victim() const {
  CCS_EXPECTS(has_victim(), "no resident session to evict");
  return lru_.front();
}

SwapManager::SessionKey SwapManager::victim_if(
    const std::function<bool(SessionKey)>& eligible) const {
  for (const SessionKey key : lru_) {
    if (eligible(key)) return key;
  }
  return kNone;
}

void SwapManager::swap_out(SessionKey key, SwapImage image) {
  const auto it = position_.find(key);
  CCS_EXPECTS(it != position_.end(), "cannot swap out a session that is not resident");
  lru_.erase(it->second);
  position_.erase(it);
  stored_bytes_ += image.size_bytes();
  if (stored_bytes_ > peak_stored_bytes_) peak_stored_bytes_ = stored_bytes_;
  images_.emplace(key, std::move(image));
}

SwapImage SwapManager::swap_in(SessionKey key) {
  const auto im = images_.find(key);
  if (im == images_.end()) {
    throw Error("session " + std::to_string(key) + " is not in the swap tier");
  }
  SwapImage image = std::move(im->second);
  stored_bytes_ -= image.size_bytes();
  images_.erase(im);
  lru_.push_back(key);
  position_.emplace(key, std::prev(lru_.end()));
  return image;
}

}  // namespace ccs::session
