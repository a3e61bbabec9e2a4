#include "tensor/csr.h"

#include <algorithm>

#include "util/contract.h"

namespace gnn4ip::tensor {

Csr Csr::from_triplets(std::size_t rows, std::size_t cols,
                       std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    GNN4IP_ENSURE(t.row < rows && t.col < cols,
                  "triplet index out of range");
  }
  // Sort by (row, col) and merge-sum duplicates in place. This is the
  // construction hot path (one CSR per featurized graph), so no
  // node-per-cell containers.
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::size_t unique = 0;
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    if (unique > 0 && triplets[unique - 1].row == triplets[i].row &&
        triplets[unique - 1].col == triplets[i].col) {
      triplets[unique - 1].value += triplets[i].value;
    } else {
      triplets[unique++] = triplets[i];
    }
  }
  triplets.resize(unique);

  Csr s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.row_offsets_.assign(rows + 1, 0);
  for (const Triplet& t : triplets) {
    ++s.row_offsets_[t.row + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    s.row_offsets_[r + 1] += s.row_offsets_[r];
  }
  s.col_indices_.resize(triplets.size());
  s.values_.resize(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    s.col_indices_[i] = triplets[i].col;
    s.values_[i] = triplets[i].value;
  }

  // Eager transpose (CSC of the original = CSR of the transpose).
  s.t_row_offsets_.assign(cols + 1, 0);
  for (std::size_t c : s.col_indices_) ++s.t_row_offsets_[c + 1];
  for (std::size_t c = 0; c < cols; ++c) {
    s.t_row_offsets_[c + 1] += s.t_row_offsets_[c];
  }
  s.t_col_indices_.resize(triplets.size());
  s.t_values_.resize(triplets.size());
  std::vector<std::size_t> cursor(s.t_row_offsets_.begin(),
                                  s.t_row_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = s.row_offsets_[r]; k < s.row_offsets_[r + 1]; ++k) {
      const std::size_t c = s.col_indices_[k];
      const std::size_t slot = cursor[c]++;
      s.t_col_indices_[slot] = r;
      s.t_values_[slot] = s.values_[k];
    }
  }
  return s;
}

namespace {

// Tiled CSR × dense kernel. Columns are processed in register-width
// blocks: the accumulators for one block stay in registers across the
// whole nonzero list of a row, so the inner loop is a fixed-trip-count
// FMA the compiler vectorizes. Per output element the accumulation
// order is ascending k — identical to the scalar kernel — so results
// are bit-for-bit unchanged by the tiling.
constexpr std::size_t kColBlock = 8;

Matrix spmm(const std::vector<std::size_t>& offsets,
            const std::vector<std::size_t>& cols,
            const std::vector<float>& values, std::size_t out_rows,
            const Matrix& x) {
  const std::size_t width = x.cols();
  Matrix y(out_rows, width);
  if (width == 0) return y;
  const float* xd = x.data().data();
  float* yd = y.data().data();
  for (std::size_t r = 0; r < out_rows; ++r) {
    const std::size_t k0 = offsets[r];
    const std::size_t k1 = offsets[r + 1];
    float* yr = yd + r * width;
    for (std::size_t j0 = 0; j0 < width; j0 += kColBlock) {
      const std::size_t jn = std::min(kColBlock, width - j0);
      float acc[kColBlock] = {};
      if (jn == kColBlock) {
        for (std::size_t k = k0; k < k1; ++k) {
          const float v = values[k];
          const float* xr = xd + cols[k] * width + j0;
          for (std::size_t jj = 0; jj < kColBlock; ++jj) {
            acc[jj] += v * xr[jj];
          }
        }
      } else {
        for (std::size_t k = k0; k < k1; ++k) {
          const float v = values[k];
          const float* xr = xd + cols[k] * width + j0;
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

}  // namespace

Matrix Csr::multiply(const Matrix& x) const {
  GNN4IP_ENSURE(x.rows() == cols_, "spmm shape mismatch");
  return spmm(row_offsets_, col_indices_, values_, rows_, x);
}

Matrix Csr::multiply_transposed(const Matrix& x) const {
  GNN4IP_ENSURE(x.rows() == rows_, "spmmᵀ shape mismatch");
  return spmm(t_row_offsets_, t_col_indices_, t_values_, cols_, x);
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
