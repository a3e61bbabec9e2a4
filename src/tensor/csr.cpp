#include "tensor/csr.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"

namespace gnn4ip::tensor {

Csr::Csr(std::size_t rows, std::size_t cols,
         std::vector<std::size_t> row_offsets,
         std::vector<std::size_t> col_indices, std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  GNN4IP_ENSURE(row_offsets_.size() == rows_ + 1 && row_offsets_[0] == 0 &&
                    row_offsets_[rows_] == col_indices_.size() &&
                    values_.size() == col_indices_.size(),
                "CSR arrays disagree in size");
  // Offsets first: once they never decrease, every row's range lies
  // inside col_indices_.
  for (std::size_t r = 0; r < rows_; ++r) {
    GNN4IP_ENSURE(row_offsets_[r] <= row_offsets_[r + 1],
                  "CSR row offsets decrease");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t k0 = row_offsets_[r];
    for (std::size_t k = k0; k < row_offsets_[r + 1]; ++k) {
      GNN4IP_ENSURE(col_indices_[k] < cols_, "CSR column out of range");
      GNN4IP_ENSURE(k == k0 || col_indices_[k - 1] < col_indices_[k],
                    "CSR columns not strictly ascending in a row");
    }
  }
}

// Tiled CSR × dense kernel. Columns are processed in register-width
// blocks: the accumulators for one block stay in registers across the
// whole nonzero list of a row, so the inner loop is a fixed-trip-count
// FMA the compiler vectorizes. Per output element the accumulation
// order is ascending k — identical to the scalar kernel — so results
// are bit-for-bit unchanged by the tiling.
constexpr std::size_t kColBlock = 8;

Matrix Csr::multiply(const Matrix& x) const {
  GNN4IP_ENSURE(x.rows() == cols_, "spmm shape mismatch");
  const std::size_t width = x.cols();
  Matrix y(rows_, width);
  if (width == 0) return y;
  const float* xd = x.data().data();
  float* yd = y.data().data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t k0 = row_offsets_[r];
    const std::size_t k1 = row_offsets_[r + 1];
    float* yr = yd + r * width;
    for (std::size_t j0 = 0; j0 < width; j0 += kColBlock) {
      const std::size_t jn = std::min(kColBlock, width - j0);
      float acc[kColBlock] = {};
      if (jn == kColBlock) {
        for (std::size_t k = k0; k < k1; ++k) {
          const float v = values_[k];
          const float* xr = xd + col_indices_[k] * width + j0;
          for (std::size_t jj = 0; jj < kColBlock; ++jj) {
            acc[jj] += v * xr[jj];
          }
        }
      } else {
        for (std::size_t k = k0; k < k1; ++k) {
          const float v = values_[k];
          const float* xr = xd + col_indices_[k] * width + j0;
          for (std::size_t jj = 0; jj < jn; ++jj) {
            acc[jj] += v * xr[jj];
          }
        }
      }
      for (std::size_t jj = 0; jj < jn; ++jj) yr[j0 + jj] = acc[jj];
    }
  }
  return y;
}

Matrix Csr::multiply_transposed(const Matrix& x) const {
  GNN4IP_ENSURE(x.rows() == rows_, "spmmᵀ shape mismatch");
  // Row r of S adds values[k] · x[r] into y[col_indices[k]]. Rows go in
  // ascending order, so every output element adds its terms to +0 in
  // ascending r: the order a row of the materialized Sᵀ would use.
  const std::size_t width = x.cols();
  Matrix y(cols_, width);
  const float* xd = x.data().data();
  float* yd = y.data().data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* xr = xd + r * width;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const float v = values_[k];
      float* yr = yd + col_indices_[k] * width;
      for (std::size_t j = 0; j < width; ++j) yr[j] += v * xr[j];
    }
  }
  return y;
}

Matrix Csr::to_dense() const {
  Matrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      d.at(r, col_indices_[k]) += values_[k];
    }
  }
  return d;
}

}  // namespace gnn4ip::tensor
