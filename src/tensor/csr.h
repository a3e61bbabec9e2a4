// Compressed-sparse-row matrix with fixed (non-trainable) values.
//
// Used for the symmetric-normalized adjacency D̂^{-1/2}ÂD̂^{-1/2} of
// Eq. 5: the adjacency is a constant of each graph, so only dense
// operands carry gradients. spmm backward therefore needs Sᵀ·dY, which
// multiply_transposed scatters from S's own rows; no transpose is kept.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace gnn4ip::tensor {

class Csr {
 public:
  Csr() = default;

  /// Adopt CSR arrays. `row_offsets` holds rows + 1 non-decreasing
  /// entries from 0 to nnz; each row's columns are below `cols` and
  /// strictly ascending; `values` is parallel to `col_indices`. Anything
  /// else is a contract violation.
  Csr(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_offsets,
      std::vector<std::size_t> col_indices, std::vector<float> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// Y = S · X  (dense X with X.rows() == cols()).
  [[nodiscard]] Matrix multiply(const Matrix& x) const;
  /// Y = S · X into `y`, which must be rows()×X.cols() and not X; every
  /// element is overwritten.
  void multiply(const Matrix& x, Matrix& y) const;

  /// Y = Sᵀ · X (dense X with X.rows() == rows()). Each output element
  /// sums its terms in ascending row of S, as a row walk of a
  /// materialized Sᵀ would.
  [[nodiscard]] Matrix multiply_transposed(const Matrix& x) const;

  /// Materialize as dense (tests only; small graphs).
  [[nodiscard]] Matrix to_dense() const;

  /// Row slice access for iteration.
  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const {
    return row_offsets_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const {
    return col_indices_;
  }
  [[nodiscard]] const std::vector<float>& values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<float> values_;
};

}  // namespace gnn4ip::tensor
