#include "tensor/csr.h"

#include <utility>

#include "tensor/row_kernel.h"
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

Matrix Csr::multiply(const Matrix& x) const {
  Matrix y(rows_, x.cols());
  multiply(x, y);
  return y;
}

void Csr::multiply(const Matrix& x, Matrix& y) const {
  GNN4IP_ENSURE(x.rows() == cols_, "spmm shape mismatch");
  GNN4IP_ENSURE(y.rows() == rows_ && y.cols() == x.cols() && &y != &x,
                "spmm output shape mismatch");
  const std::size_t width = x.cols();
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t k0 = row_offsets_[r];
    const std::size_t k1 = row_offsets_[r + 1];
    sparse_row_times({col_indices_.data() + k0, k1 - k0}, values_.data() + k0,
                     x.data().data(), width, y.data().data() + r * width);
  }
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
