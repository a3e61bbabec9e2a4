// Dense matrix and sparse CSR tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::tensor {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5F);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5F);
  m.fill(0.0F);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0F);
}

TEST(Matrix, FromRowsAndAt) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(m.at(0, 1), 2.0F);
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0F);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), util::ContractViolation);
}

TEST(Matrix, IndexOutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), util::ContractViolation);
  EXPECT_THROW((void)m.at(0, 2), util::ContractViolation);
}

TEST(Matrix, MatmulSmall) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0F);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(matmul(a, b), util::ContractViolation);
}

TEST(Matrix, TransposedVariantsAgree) {
  util::Rng rng(5);
  Matrix a(4, 3);
  Matrix b(4, 5);
  for (float& x : a.data()) x = rng.uniform(-1, 1);
  for (float& x : b.data()) x = rng.uniform(-1, 1);
  // AᵀB via explicit transpose vs fused.
  const Matrix expected = matmul(transpose(a), b);
  const Matrix fused = matmul_at_b(a, b);
  EXPECT_LT(max_abs_diff(expected, fused), 1e-5F);

  Matrix c(5, 3);  // A·Cᵀ with A 4×3 needs C ?×3
  for (float& x : c.data()) x = rng.uniform(-1, 1);
  const Matrix expected2 = matmul(a, transpose(c));
  const Matrix fused2 = matmul_a_bt(a, c);
  EXPECT_LT(max_abs_diff(expected2, fused2), 1e-5F);
}

TEST(Matrix, AddSubtractHadamard) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3, 5}});
  EXPECT_FLOAT_EQ(add(a, b).at(0, 1), 7.0F);
  EXPECT_FLOAT_EQ(subtract(b, a).at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(hadamard(a, b).at(0, 1), 10.0F);
}

TEST(Matrix, NormsAndDot) {
  const Matrix a = Matrix::from_rows({{3, 4}});
  EXPECT_FLOAT_EQ(a.frobenius_norm(), 5.0F);
  EXPECT_FLOAT_EQ(a.max_abs(), 4.0F);
  const Matrix b = Matrix::from_rows({{1, 2}});
  EXPECT_FLOAT_EQ(dot(a, b), 11.0F);
}

TEST(Matrix, AxpyAndScale) {
  Matrix a = Matrix::from_rows({{1, 1}});
  const Matrix b = Matrix::from_rows({{2, 4}});
  a.axpy_in_place(0.5F, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(a.at(0, 1), 3.0F);
  a.scale_in_place(2.0F);
  EXPECT_FLOAT_EQ(a.at(0, 1), 6.0F);
}

TEST(Matrix, GlorotBoundsAndSpread) {
  util::Rng rng(3);
  const Matrix w = Matrix::glorot(30, 20, rng);
  const float bound = std::sqrt(6.0F / 50.0F);
  float max_seen = 0.0F;
  for (float x : w.data()) {
    EXPECT_LE(std::fabs(x), bound + 1e-6F);
    max_seen = std::max(max_seen, std::fabs(x));
  }
  EXPECT_GT(max_seen, bound * 0.5F);  // actually spread out
}

/// A rows × cols matrix holding each cell with probability `density`,
/// valued in [-1, 1), except the cells `empty` names.
Csr random_csr(std::size_t rows, std::size_t cols, double density,
               util::Rng& rng,
               bool (*empty)(std::size_t, std::size_t) = nullptr) {
  std::vector<std::size_t> offsets{0};
  std::vector<std::size_t> col_indices;
  std::vector<float> values;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if ((empty == nullptr || !empty(r, c)) && rng.uniform(0, 1) < density) {
        col_indices.push_back(c);
        values.push_back(rng.uniform(-1, 1));
      }
    }
    offsets.push_back(col_indices.size());
  }
  return Csr(rows, cols, std::move(offsets), std::move(col_indices),
             std::move(values));
}

/// Sᵀ's arrays, built by counting sort: row c of Sᵀ lists S's column-c
/// entries in ascending row of S.
Csr transposed(const Csr& s) {
  std::vector<std::size_t> offsets(s.cols() + 1, 0);
  for (const std::size_t c : s.col_indices()) ++offsets[c + 1];
  for (std::size_t c = 0; c < s.cols(); ++c) offsets[c + 1] += offsets[c];
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<std::size_t> rows(s.nnz());
  std::vector<float> values(s.nnz());
  for (std::size_t r = 0; r < s.rows(); ++r) {
    for (std::size_t k = s.row_offsets()[r]; k < s.row_offsets()[r + 1];
         ++k) {
      const std::size_t slot = cursor[s.col_indices()[k]]++;
      rows[slot] = r;
      values[slot] = s.values()[k];
    }
  }
  return Csr(s.cols(), s.rows(), std::move(offsets), std::move(rows),
             std::move(values));
}

Matrix random_dense(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix x(rows, cols);
  for (float& v : x.data()) v = rng.uniform(-1, 1);
  return x;
}

TEST(Csr, FromArraysAndDense) {
  const Csr s(2, 3, {0, 2, 3}, {0, 2, 1}, {1.5F, 2.0F, 3.0F});
  EXPECT_EQ(s.nnz(), 3u);
  const Matrix d = s.to_dense();
  EXPECT_FLOAT_EQ(d.at(0, 0), 1.5F);
  EXPECT_FLOAT_EQ(d.at(0, 2), 2.0F);
  EXPECT_FLOAT_EQ(d.at(1, 1), 3.0F);
  EXPECT_FLOAT_EQ(d.at(1, 0), 0.0F);
}

TEST(Csr, MultiplyMatchesDense) {
  util::Rng rng(7);
  const Csr s = random_csr(6, 5, 0.6, rng);
  const Matrix x = random_dense(5, 4, rng);
  const Matrix via_sparse = s.multiply(x);
  const Matrix via_dense = matmul(s.to_dense(), x);
  EXPECT_LT(max_abs_diff(via_sparse, via_dense), 1e-5F);
}

TEST(Csr, MultiplyTransposedMatchesDense) {
  util::Rng rng(9);
  const Csr s = random_csr(4, 7, 0.6, rng);
  const Matrix x = random_dense(4, 3, rng);
  const Matrix via_sparse = s.multiply_transposed(x);
  const Matrix via_dense = matmul(transpose(s.to_dense()), x);
  EXPECT_LT(max_abs_diff(via_sparse, via_dense), 1e-5F);
}

// The scatter adds each output element's terms in the order a row walk
// of the materialized transpose does, so the bits agree, not just the
// values. Widths 16 and 11 cover whole and partial column blocks of
// multiply; rows 3 and 20 and columns 5 and 33 stay empty.
TEST(Csr, MultiplyTransposedBitEqualsMultiplyOfTranspose) {
  util::Rng rng(11);
  const Csr s = random_csr(40, 37, 0.3, rng, [](std::size_t r, std::size_t c) {
    return r == 3 || r == 20 || c == 5 || c == 33;
  });
  ASSERT_GT(s.nnz(), 100u);
  const Csr t = transposed(s);
  for (const std::size_t width : {16u, 11u}) {
    const Matrix x = random_dense(s.rows(), width, rng);
    const Matrix scattered = s.multiply_transposed(x);
    const Matrix gathered = t.multiply(x);
    ASSERT_EQ(scattered.rows(), s.cols());
    ASSERT_EQ(scattered.data().size(), gathered.data().size());
    for (std::size_t i = 0; i < gathered.data().size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(scattered.data()[i]),
                std::bit_cast<std::uint32_t>(gathered.data()[i]))
          << "element " << i << " at width " << width;
    }
    for (std::size_t j = 0; j < width; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(scattered.at(5, j)), 0u);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(scattered.at(33, j)), 0u);
    }
  }
}

TEST(Csr, ConstructorRejectsMalformedArrays) {
  using util::ContractViolation;
  // Decreasing offsets.
  EXPECT_THROW(Csr(3, 3, {0, 2, 1, 3}, {0, 1, 2}, {1.0F, 1.0F, 1.0F}),
               ContractViolation);
  // An offset past nnz in the middle (its decrease comes later).
  EXPECT_THROW(Csr(2, 3, {0, 5, 2}, {0, 1}, {1.0F, 1.0F}),
               ContractViolation);
  // Column out of range.
  EXPECT_THROW(Csr(2, 3, {0, 1, 2}, {0, 3}, {1.0F, 1.0F}), ContractViolation);
  // Columns not strictly ascending: decreasing, then repeated.
  EXPECT_THROW(Csr(1, 3, {0, 2}, {2, 1}, {1.0F, 1.0F}), ContractViolation);
  EXPECT_THROW(Csr(1, 3, {0, 2}, {1, 1}, {1.0F, 1.0F}), ContractViolation);
  // Arrays that disagree in size.
  EXPECT_THROW(Csr(2, 3, {0, 1}, {0}, {1.0F}), ContractViolation);
  EXPECT_THROW(Csr(1, 3, {1, 1}, {0}, {1.0F}), ContractViolation);
  EXPECT_THROW(Csr(1, 3, {0, 2}, {0, 1}, {1.0F}), ContractViolation);
  // Ascending columns across a row boundary are fine.
  EXPECT_NO_THROW(Csr(2, 3, {0, 2, 3}, {1, 2, 0}, {1.0F, 1.0F, 1.0F}));
}

TEST(Csr, ShapeChecks) {
  const Csr s(2, 3, {0, 1, 1}, {0}, {1.0F});
  Matrix wrong(2, 2);
  EXPECT_THROW(s.multiply(wrong), util::ContractViolation);
  Matrix wrong_t(3, 2);
  EXPECT_THROW(s.multiply_transposed(wrong_t), util::ContractViolation);
}

TEST(Csr, EmptyMatrixMultiplies) {
  const Csr s(3, 3, {0, 0, 0, 0}, {}, {});
  Matrix x(3, 2, 1.0F);
  const Matrix y = s.multiply(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(y.at(2, 1), 0.0F);
  const Matrix yt = s.multiply_transposed(x);
  EXPECT_FLOAT_EQ(yt.at(1, 1), 0.0F);
}

}  // namespace
}  // namespace gnn4ip::tensor
