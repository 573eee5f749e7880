// Host-side dense matrix used for functional verification.
//
// Values are held in double regardless of the simulated precision mode: the
// precision mode changes SIMD width and therefore timing, while functional
// checks compare against a double-precision reference (the paper's
// evaluation is throughput, not numerics).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace maco::sa {

class HostMatrix {
 public:
  HostMatrix() = default;
  HostMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& at(std::size_t r, std::size_t c) {
    MACO_ASSERT_MSG(r < rows_ && c < cols_, "index (" << r << "," << c
                                                      << ") out of bounds");
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    MACO_ASSERT_MSG(r < rows_ && c < cols_, "index (" << r << "," << c
                                                      << ") out of bounds");
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const noexcept { return data_; }

  double* row_ptr(std::size_t r) {
    MACO_ASSERT(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* row_ptr(std::size_t r) const {
    MACO_ASSERT(r < rows_);
    return data_.data() + r * cols_;
  }

  static HostMatrix random(std::size_t rows, std::size_t cols,
                           util::Rng& rng, double lo = -1.0, double hi = 1.0) {
    HostMatrix m(rows, cols);
    for (auto& v : m.data_) v = rng.next_double(lo, hi);
    return m;
  }

  bool approx_equal(const HostMatrix& other, double tolerance = 1e-9) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
      if (std::abs(data_[i] - other.data_[i]) > tolerance) return false;
    }
    return true;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// C += A * B, straightforward triple loop; the oracle for every GEMM test.
inline void reference_gemm(const HostMatrix& a, const HostMatrix& b,
                           HostMatrix& c) {
  MACO_ASSERT(a.cols() == b.rows());
  MACO_ASSERT(c.rows() == a.rows() && c.cols() == b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
}

}  // namespace maco::sa
