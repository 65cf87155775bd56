#include "grid/fd_table.hpp"

#include <cassert>

namespace ethergrid::grid {

FdTable::FdTable(std::int64_t capacity)
    : capacity_(capacity), available_(capacity), low_watermark_(capacity) {
  assert(capacity >= 0);
}

bool FdTable::try_allocate(std::int64_t n) {
  if (available_ < n) {
    ++allocation_failures_;
    return false;
  }
  available_ -= n;
  if (available_ < low_watermark_) low_watermark_ = available_;
  return true;
}

void FdTable::free(std::int64_t n) {
  available_ += n;
  assert(available_ <= capacity_ && "freed more descriptors than allocated");
}

void FdTable::reset() { available_ = capacity_; }

}  // namespace ethergrid::grid
