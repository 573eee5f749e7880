// Log-bucketed latency histogram.
//
// Serving simulations record millions of per-request latencies spanning
// five-plus orders of magnitude (microsecond cache hits to multi-second
// saturated queues), and the metrics that matter are tail quantiles
// (p95/p99/p999). A histogram with uniform buckets cannot hold that range
// at useful resolution, so this one spaces bucket edges
// geometrically: every bucket spans the same RATIO, giving a constant
// relative error bound (~2.2% at 32 buckets per decade) from 1 ns-scale
// values to 10^4 seconds in a few hundred fixed-size bins. Recording is
// O(1) with no allocation after construction: a sample's bin comes from a
// table built once per process, not from a logarithm. Quantiles
// interpolate geometrically inside the landing bucket and are exact at the
// recorded min/max.
#pragma once

#include <cstdint>
#include <vector>

namespace maco::util {

class LatencyHistogram {
 public:
  // Buckets cover [1e-6, 1e7) geometrically with 32 buckets per factor of
  // 10, plus underflow/overflow bins: in milliseconds, 1 ns .. 10^4 s at
  // ~2.2% relative resolution.
  LatencyHistogram();

  // Samples must be finite; non-positive samples land in the underflow
  // bin (and still count toward quantiles as `min()`).
  void record(double sample) noexcept;
  // Pools another histogram's samples.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }

  // Quantile in [0, 1] (0.95 = p95). Empty histogram => 0. Monotone in q,
  // clamped to [min(), max()], geometric interpolation inside the bucket.
  double quantile(double q) const noexcept;

  const std::vector<std::uint64_t>& buckets() const noexcept {
    return bins_;
  }

  void reset() noexcept;

 private:
  std::vector<std::uint64_t> bins_;  // [underflow, b0..bn-1, overflow]
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace maco::util
