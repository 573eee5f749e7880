// MMAE on-chip tile buffers (paper: 192 KiB total across A/B/C).
//
// Each buffer is bank-organized for double buffering: the DMA fills one bank
// while the systolic array drains the other. The model tracks occupancy and
// enforces capacity — a tile that does not fit is a configuration error the
// accelerator controller reports as an exception.
#pragma once

#include <cstdint>
#include <string>

namespace maco::sa {

class TileBuffer {
 public:
  TileBuffer(std::string name, std::uint64_t capacity_bytes,
             unsigned banks = 2);

  const std::string& name() const noexcept { return name_; }
  std::uint64_t capacity_bytes() const noexcept { return capacity_; }
  std::uint64_t bank_bytes() const noexcept { return capacity_ / banks_; }
  unsigned banks() const noexcept { return banks_; }

  // Whether one bank can hold `bytes` (a tile occupies one bank).
  bool tile_fits(std::uint64_t bytes) const noexcept {
    return bytes <= bank_bytes();
  }

  // Occupancy accounting for the active bank.
  bool acquire(std::uint64_t bytes) noexcept;
  void release(std::uint64_t bytes) noexcept;
  std::uint64_t occupied_bytes() const noexcept { return occupied_; }
  std::uint64_t high_water_bytes() const noexcept { return high_water_; }

  // Double-buffer bank swap (fill bank becomes drain bank).
  void swap_banks() noexcept { active_bank_ = (active_bank_ + 1) % banks_; }
  unsigned active_bank() const noexcept { return active_bank_; }

 private:
  std::string name_;
  std::uint64_t capacity_;
  unsigned banks_;
  unsigned active_bank_ = 0;
  std::uint64_t occupied_ = 0;
  std::uint64_t high_water_ = 0;
};

// The MMAE's three buffers with the paper's 192 KiB budget split evenly:
// 64 KiB each, two banks, so one bank holds a 64×64 FP64 tile (32 KiB).
struct BufferSet {
  TileBuffer a;
  TileBuffer b;
  TileBuffer c;

  static BufferSet maco_default();
  std::uint64_t total_capacity() const noexcept {
    return a.capacity_bytes() + b.capacity_bytes() + c.capacity_bytes();
  }
};

}  // namespace maco::sa
