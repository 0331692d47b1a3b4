#include "iomodel/layout.h"

#include "util/contract.h"
#include "util/int_math.h"

namespace ccs::iomodel {

MemoryLayout::MemoryLayout(std::int64_t block_words, Addr base)
    : block_words_(block_words) {
  CCS_EXPECTS(block_words >= 1, "block size must be positive");
  CCS_EXPECTS(base >= 0, "address base must be non-negative");
  cursor_ = round_up(base, block_words_);
}

Region MemoryLayout::allocate(std::int64_t words, const std::string& label,
                              bool block_align) {
  CCS_EXPECTS(words >= 0, "negative region size");
  const Addr base = block_align ? round_up(cursor_, block_words_) : cursor_;
  const Region region{base, words};
  cursor_ = checked_add(base, words);
  allocated_.push_back(region);
  labels_.push_back(label);
  return region;
}

std::string MemoryLayout::label_at(Addr a) const {
  for (std::size_t i = 0; i < allocated_.size(); ++i) {
    if (allocated_[i].contains(a)) return labels_[i];
  }
  return "";
}

}  // namespace ccs::iomodel
