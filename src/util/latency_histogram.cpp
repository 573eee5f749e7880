#include "util/latency_histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace maco::util {
namespace {

// The one geometry: 13 decades of 32 buckets over [kLo, kHi).
constexpr double kLo = 1e-6;
constexpr double kHi = 1e7;
constexpr double kLogLo = -6.0;  // log10(kLo)
constexpr double kPerDecade = 32.0;
constexpr std::size_t kRegularBuckets = 416;
constexpr std::size_t kOverflow = kRegularBuckets + 1;  // the last bin

// Lower end of regular bin `index` (1-based) on the geometric grid, which
// quantile() interpolates over.
double bucket_lower(std::size_t index) noexcept {
  return std::pow(10.0, kLogLo + static_cast<double>(index - 1) / kPerDecade);
}

// The bin of a sample by its logarithm: the formula that defines the bins.
// record() reads the same bins from the table below.
std::size_t log10_bin(double sample) noexcept {
  if (!(sample >= kLo)) return 0;  // underflow (incl. non-positive)
  if (sample >= kHi) return kOverflow;
  const double offset = (std::log10(sample) - kLogLo) * kPerDecade;
  std::size_t index = static_cast<std::size_t>(offset);
  // Floating-point edge guard: log10 rounding can land exactly-on-edge
  // samples one bucket high at the top of the range.
  if (index >= kRegularBuckets) index = kRegularBuckets - 1;
  return index + 1;
}

// A cell is the doubles that share an exponent and the top 6 mantissa
// bits, at most 1/64 = 1.6% wide; a bucket is 10^(1/32) = 7.5% wide, so a
// cell holds at most one bin edge.
constexpr unsigned kCellShift = 52 - 6;
constexpr std::uint64_t cell_of(double sample) noexcept {
  return std::bit_cast<std::uint64_t>(sample) >> kCellShift;
}
constexpr std::uint64_t kFirstCell = cell_of(kLo);
constexpr std::size_t kCells = cell_of(kHi) - kFirstCell + 1;

struct Cell {
  double edge;        // the bin edge inside the cell; +inf when none is
  std::uint32_t bin;  // the bin of the cell's smallest double
};
using BinTable = std::array<Cell, kCells>;

// Built at run time, not folded into a constant: GCC evaluates log10 of a
// constant with MPFR, which can differ from the C library's in the last
// ulp.
BinTable build_bin_table() {
  // edges[b]: the smallest double log10_bin puts in bin b, found by
  // stepping ulps from b's lower edge on the grid.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::array<double, kOverflow + 1> edges{};
  for (std::size_t b = 1; b <= kOverflow; ++b) {
    double x = bucket_lower(b);
    while (log10_bin(x) >= b) x = std::nextafter(x, 0.0);
    while (log10_bin(x) < b) x = std::nextafter(x, kInf);
    MACO_ASSERT(log10_bin(x) == b);
    edges[b] = x;
  }
  BinTable table;
  std::size_t bin = 0;
  for (std::size_t c = 0; c < kCells; ++c) {
    const double start = std::bit_cast<double>((kFirstCell + c) << kCellShift);
    const double end =
        std::bit_cast<double>((kFirstCell + c + 1) << kCellShift);
    while (bin < kOverflow && edges[bin + 1] <= start) ++bin;
    table[c] = Cell{kInf, static_cast<std::uint32_t>(bin)};
    if (bin < kOverflow && edges[bin + 1] < end) {
      MACO_ASSERT(bin + 1 == kOverflow || edges[bin + 2] >= end);
      table[c].edge = edges[bin + 1];
    }
  }
  return table;
}

std::size_t bucket_index(double sample) noexcept {
  if (!(sample >= kLo)) return 0;
  if (sample >= kHi) return kOverflow;
  static const BinTable table = build_bin_table();
  const Cell& cell = table[cell_of(sample) - kFirstCell];
  return cell.bin + (sample >= cell.edge);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : bins_(kOverflow + 1, 0) {}

void LatencyHistogram::record(double sample) noexcept {
  ++bins_[bucket_index(sample)];
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  if (other.count_ > 0) {
    min_ = count_ > 0 ? std::min(min_, other.min_) : other.min_;
    max_ = count_ > 0 ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, nearest-rank with interpolation
  // inside the landing bucket).
  const double rank = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(bins_[i]);
    if (rank <= next || i + 1 == bins_.size()) {
      double lower;
      double upper;
      if (i == 0) {  // underflow: everything below kLo
        lower = min_;
        upper = kLo;
      } else if (i == kOverflow) {
        lower = kHi;
        upper = max_;
      } else {
        lower = bucket_lower(i);
        upper = bucket_lower(i + 1);
      }
      lower = std::max(lower, min_);
      upper = std::min(upper, max_);
      if (!(upper > lower)) return std::clamp(lower, min_, max_);
      // Geometric interpolation matches the bucket spacing, so the
      // relative error stays bounded by the bucket ratio. Non-positive
      // bounds (underflow bin holding a zero sample) fall back to linear.
      const double frac = std::clamp(
          (rank - cumulative) / static_cast<double>(bins_[i]), 0.0, 1.0);
      const double value =
          lower > 0.0 ? lower * std::pow(upper / lower, frac)
                      : lower + (upper - lower) * frac;
      return std::clamp(value, min_, max_);
    }
    cumulative = next;
  }
  return max_;
}

void LatencyHistogram::reset() noexcept {
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace maco::util
