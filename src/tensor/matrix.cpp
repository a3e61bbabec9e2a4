#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "tensor/row_kernel.h"
#include "util/contract.h"
#include "util/string_util.h"

namespace gnn4ip::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0F);
}

Matrix Matrix::ones(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 1.0F);
}

Matrix Matrix::glorot(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  const float bound =
      std::sqrt(6.0F / static_cast<float>(rows + cols));
  for (float& x : m.data_) x = rng.uniform(-bound, bound);
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    GNN4IP_ENSURE(rows[r].size() == m.cols_,
                  "from_rows requires equal-length rows");
    std::copy(rows[r].begin(), rows[r].end(), m.row(r).begin());
  }
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  GNN4IP_ENSURE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

float Matrix::at(std::size_t r, std::size_t c) const {
  GNN4IP_ENSURE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

std::span<float> Matrix::row(std::size_t r) {
  GNN4IP_ENSURE(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const float> Matrix::row(std::size_t r) const {
  GNN4IP_ENSURE(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::add_in_place(const Matrix& other) {
  GNN4IP_ENSURE(same_shape(other), "add_in_place shape mismatch: " +
                                       shape_string() + " vs " +
                                       other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::axpy_in_place(float scale, const Matrix& other) {
  GNN4IP_ENSURE(same_shape(other), "axpy shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Matrix::scale_in_place(float factor) {
  for (float& x : data_) x *= factor;
}

float Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::max_abs() const {
  float best = 0.0F;
  for (float x : data_) best = std::max(best, std::fabs(x));
  return best;
}

std::string Matrix::shape_string() const {
  return util::format("[%zu x %zu]", rows_, cols_);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul(a, b, c);
  return c;
}

void matmul(const Matrix& a, const Matrix& b, Matrix& c) {
  GNN4IP_ENSURE(a.cols() == b.rows(), "matmul shape mismatch: " +
                                          a.shape_string() + " · " +
                                          b.shape_string());
  GNN4IP_ENSURE(c.rows() == a.rows() && c.cols() == b.cols(),
                "matmul output shape mismatch: " + c.shape_string());
  GNN4IP_ENSURE(&c != &a && &c != &b, "matmul output aliases an operand");
  // Row i of A with its zeros dropped is a sparse row, listed once (one
  // scan, no branch) for every column tile of the row kernel; node
  // features are one-hot, so most of a first-layer row is dropped.
  const std::size_t inner = a.cols();
  std::vector<std::size_t> cols(inner);
  std::vector<float> values(inner);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ar = a.data().data() + i * inner;
    std::size_t count = 0;
    for (std::size_t k = 0; k < inner; ++k) {
      cols[count] = k;
      values[count] = ar[k];
      count += ar[k] != 0.0F ? 1 : 0;
    }
    sparse_row_times({cols.data(), count}, values.data(), b.data().data(),
                     b.cols(), c.data().data() + i * b.cols());
  }
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  GNN4IP_ENSURE(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const auto a_row = a.row(k);
    const auto b_row = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = a_row[i];
      if (aki == 0.0F) continue;
      const auto c_row = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c_row[j] += aki * b_row[j];
      }
    }
  }
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  GNN4IP_ENSURE(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto a_row = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const auto b_row = b.row(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a_row[k]) * b_row[k];
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t.at(j, i) = a.at(i, j);
    }
  }
  return t;
}

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.add_in_place(b);
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.axpy_in_place(-1.0F, b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  GNN4IP_ENSURE(a.same_shape(b), "hadamard shape mismatch");
  Matrix c = a;
  auto cd = c.data();
  const auto bd = b.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] *= bd[i];
  return c;
}

float dot(const Matrix& a, const Matrix& b) {
  GNN4IP_ENSURE(a.same_shape(b), "dot shape mismatch");
  double acc = 0.0;
  const auto ad = a.data();
  const auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    acc += static_cast<double>(ad[i]) * bd[i];
  }
  return static_cast<float>(acc);
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  GNN4IP_ENSURE(a.same_shape(b), "max_abs_diff shape mismatch");
  float best = 0.0F;
  const auto ad = a.data();
  const auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    best = std::max(best, std::fabs(ad[i] - bd[i]));
  }
  return best;
}

}  // namespace gnn4ip::tensor
