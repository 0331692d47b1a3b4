#include "sdf/firing_program.h"

#include "util/contract.h"
#include "util/int_math.h"

namespace ccs::sdf {

FiringProgram::Block& FiringProgram::open_block() {
  if (blocks_.empty() || blocks_.back().repeats != 1) {
    blocks_.push_back({body_.size(), body_.size(), 1});
  }
  return blocks_.back();
}

void FiringProgram::append(NodeId v, std::int64_t count) {
  CCS_EXPECTS(count >= 0, "negative firing count");
  if (count == 0) return;
  Block& b = open_block();
  body_.insert(body_.end(), static_cast<std::size_t>(count), v);
  b.end = body_.size();
  size_ = checked_add(size_, count);
}

void FiringProgram::append(std::span<const NodeId> firings) {
  if (firings.empty()) return;
  Block& b = open_block();
  body_.insert(body_.end(), firings.begin(), firings.end());
  b.end = body_.size();
  size_ = checked_add(size_, static_cast<std::int64_t>(firings.size()));
}

void FiringProgram::append_block(std::span<const NodeId> body, std::int64_t repeats) {
  CCS_EXPECTS(repeats >= 0, "negative repeat count");
  if (repeats == 1) append(body);
  if (repeats <= 1 || body.empty()) return;
  const std::int64_t firings =
      checked_mul(static_cast<std::int64_t>(body.size()), repeats);
  blocks_.push_back({body_.size(), body_.size() + body.size(), repeats});
  body_.insert(body_.end(), body.begin(), body.end());
  size_ = checked_add(size_, firings);
}

void FiringProgram::append(const FiringProgram& other) {
  CCS_EXPECTS(&other != this, "a program cannot append itself");
  for (const Block& b : other.blocks_) append_block(other.body(b), b.repeats);
}

void FiringProgram::repeat_since(std::size_t from, std::int64_t extra) {
  CCS_EXPECTS(extra >= 0, "negative repeat count");
  CCS_EXPECTS(from <= body_.size(), "mark beyond the program");
  if (extra == 0 || from == body_.size()) return;
  Block& last = blocks_.back();
  CCS_EXPECTS(last.repeats == 1 && last.begin <= from,
              "only firings appended since the last repeated block can repeat");
  const std::int64_t tail = static_cast<std::int64_t>(body_.size() - from);
  const std::int64_t repeats = checked_add(extra, 1);
  size_ = checked_add(size_, checked_mul(tail, extra));
  if (from == last.begin) {
    last.repeats = repeats;
  } else {
    last.end = from;
    blocks_.push_back({from, body_.size(), repeats});
  }
}

std::vector<NodeId> FiringProgram::flatten() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(size_));
  for_each_firing([&out](NodeId v) { out.push_back(v); });
  return out;
}

void FiringProgram::clear() noexcept {
  body_.clear();
  blocks_.clear();
  size_ = 0;
}

}  // namespace ccs::sdf
