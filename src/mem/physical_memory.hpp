// Sparse flat physical memory: the functional truth of all bytes.
//
// The simulator follows the classic split between a functional backing store
// and timing models: the L3 slices track tags and latencies (mem/cache.hpp,
// mem/ccm.hpp) while the actual data lives here, so
// data correctness is trivially preserved no matter what the timing models
// do. Storage is allocated in 4 KiB blocks on first touch.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace maco::mem {

class PhysicalMemory {
 public:
  static constexpr std::uint64_t kBlockBits = 12;
  static constexpr std::uint64_t kBlockSize = 1ull << kBlockBits;

  void write(std::uint64_t addr, const void* data, std::uint64_t bytes);
  void read(std::uint64_t addr, void* out, std::uint64_t bytes) const;

  // Typed helpers for the common FP64 path.
  void write_f64(std::uint64_t addr, double value) {
    write(addr, &value, sizeof value);
  }
  double read_f64(std::uint64_t addr) const {
    double value = 0.0;
    read(addr, &value, sizeof value);
    return value;
  }

  void fill(std::uint64_t addr, std::uint64_t bytes, std::uint8_t value);

  std::uint64_t resident_blocks() const noexcept { return blocks_.size(); }
  std::uint64_t resident_bytes() const noexcept {
    return blocks_.size() * kBlockSize;
  }

 private:
  using Block = std::array<std::uint8_t, kBlockSize>;
  Block& block_for(std::uint64_t addr);
  const Block* block_if_present(std::uint64_t addr) const;

  std::unordered_map<std::uint64_t, std::unique_ptr<Block>> blocks_;
};

}  // namespace maco::mem
