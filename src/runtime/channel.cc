#include "runtime/channel.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::runtime {

Channel::Channel(iomodel::Region region, std::int64_t capacity)
    : region_(region), capacity_(capacity) {
  CCS_EXPECTS(capacity >= 1, "channel capacity must be positive");
  CCS_EXPECTS(region.words == capacity, "region must have one word per slot");
}

void Channel::push(std::int64_t count, iomodel::CacheSim& cache) {
  CCS_EXPECTS(count >= 0, "negative push count");
  if (count > space()) {
    throw ScheduleError("channel overflow: pushing " + std::to_string(count) + " into " +
                        std::to_string(space()) + " free slots");
  }
  std::int64_t offset = head_ + size_;
  if (offset >= capacity_) offset -= capacity_;
  touch(offset, count, cache, iomodel::AccessMode::kWrite);
  size_ += count;
}

void Channel::pop(std::int64_t count, iomodel::CacheSim& cache) {
  CCS_EXPECTS(count >= 0, "negative pop count");
  if (count > size_) {
    throw ScheduleError("channel underflow: popping " + std::to_string(count) + " of " +
                        std::to_string(size_) + " tokens");
  }
  touch(head_, count, cache, iomodel::AccessMode::kRead);
  head_ += count;
  if (head_ >= capacity_) head_ -= capacity_;
  size_ -= count;
}

void Channel::restore(std::int64_t head, std::int64_t size) {
  CCS_EXPECTS(head >= 0 && head < capacity_, "restored head out of range");
  CCS_EXPECTS(size >= 0 && size <= capacity_, "restored size exceeds capacity");
  head_ = head;
  size_ = size;
}

void Channel::touch(std::int64_t offset, std::int64_t count, iomodel::CacheSim& cache,
                    iomodel::AccessMode mode) const {
  // A ring span wraps at most once (count <= capacity), so the whole
  // operation is at most two bulk cache transactions.
  const std::int64_t run = std::min(count, capacity_ - offset);
  if (run > 0) cache.access_span(region_.base + offset, run, mode);
  if (count > run) cache.access_span(region_.base, count - run, mode);
}

}  // namespace ccs::runtime
