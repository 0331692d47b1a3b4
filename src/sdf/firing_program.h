// A firing sequence in looped form: a list of blocks, each a body of
// firings stored once and run `repeats` times in a row -- the compressed
// notation n(AB) of SDF scheduling. Every plan in the library has this
// shape: a sweep's replayed cycle is one block run 1 + R times
// (sdf::TokenSim::sweep), a single-appearance or scaled period is one
// block [v] x q_v per module, an M-batch burst is one block `members` x M,
// and a flat sequence (a serialized schedule, a hand-built test case) is
// one block run once. runtime::Engine::run proves a program block by block
// and fires it in flat order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sdf/graph.h"

namespace ccs::sdf {

class FiringProgram {
 public:
  /// Body [begin, end) of the shared body array, run `repeats` >= 1 times.
  struct Block {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::int64_t repeats = 1;
    bool operator==(const Block&) const = default;
  };

  FiringProgram() = default;

  /// The flat sequence `firings` as one block run once.
  explicit FiringProgram(std::span<const NodeId> firings) { append(firings); }

  /// Appends `count` firings of v (count >= 0). Firings appended one after
  /// another share a block until a repeated block closes it.
  void append(NodeId v, std::int64_t count = 1);

  /// Appends the flat sequence `firings` (which must not point into this
  /// program; likewise `body` below).
  void append(std::span<const NodeId> firings);

  /// Appends `body` run `repeats` times in a row (repeats >= 0; a block run
  /// once joins the open block).
  void append_block(std::span<const NodeId> body, std::int64_t repeats);

  /// Appends every block of `other`, another program.
  void append(const FiringProgram& other);

  /// Position of the next appended firing in the body array. The firings
  /// appended from a mark on can later be turned into a repeated block.
  std::size_t mark() const noexcept { return body_.size(); }

  /// Runs the firings appended since `from` (a mark() taken after the last
  /// repeat_since) 1 + extra times instead of once (extra >= 0).
  void repeat_since(std::size_t from, std::int64_t extra);

  std::span<const Block> blocks() const noexcept { return blocks_; }
  std::span<const NodeId> body(const Block& b) const noexcept {
    return std::span<const NodeId>(body_).subspan(b.begin, b.end - b.begin);
  }

  /// Firings of the flat sequence: sum of body length x repeats.
  std::int64_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// The flat sequence, every block written out `repeats` times.
  std::vector<NodeId> flatten() const;

  /// Calls f(v) for every firing of the flat sequence, in order.
  template <typename F>
  void for_each_firing(F&& f) const {
    for (const Block& b : blocks_) {
      const std::span<const NodeId> firings = body(b);
      for (std::int64_t k = 0; k < b.repeats; ++k) {
        for (const NodeId v : firings) f(v);
      }
    }
  }

  void clear() noexcept;

  friend bool operator==(const FiringProgram&, const FiringProgram&) = default;

 private:
  /// The last block if it is run once (appends extend it), else a new one.
  Block& open_block();

  std::vector<NodeId> body_;
  std::vector<Block> blocks_;
  std::int64_t size_ = 0;
};

}  // namespace ccs::sdf
