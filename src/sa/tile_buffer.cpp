#include "sa/tile_buffer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace maco::sa {

TileBuffer::TileBuffer(std::string name, std::uint64_t capacity_bytes,
                       unsigned banks)
    : name_(std::move(name)), capacity_(capacity_bytes), banks_(banks) {
  MACO_ASSERT_MSG(banks_ > 0 && capacity_ % banks_ == 0,
                  "buffer " << name_ << ": capacity " << capacity_
                            << " not divisible into " << banks_ << " banks");
}

bool TileBuffer::acquire(std::uint64_t bytes) noexcept {
  if (occupied_ + bytes > bank_bytes()) return false;
  occupied_ += bytes;
  high_water_ = std::max(high_water_, occupied_);
  return true;
}

void TileBuffer::release(std::uint64_t bytes) noexcept {
  occupied_ = bytes >= occupied_ ? 0 : occupied_ - bytes;
}

BufferSet BufferSet::maco_default() {
  return BufferSet{TileBuffer("a_buffer", 64 * 1024),
                   TileBuffer("b_buffer", 64 * 1024),
                   TileBuffer("c_buffer", 64 * 1024)};
}

}  // namespace maco::sa
