// The one row kernel of both dense products (tensor::matmul and
// Csr::multiply): a sparse row times a dense matrix. Private to
// src/tensor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

namespace gnn4ip::tensor {

/// y[j] = Σ_i values[i] · x[cols[i]·width + j] for j < width, each element
/// summed from +0 in list order. Columns go in 8-wide tiles whose
/// accumulators stay in registers across the whole list, so the inner
/// loop has a fixed trip count the compiler vectorizes; a tail narrower
/// than a tile (and a one-column x) is summed one column at a time in a
/// scalar. The tiling leaves each element's order, and so its bits,
/// unchanged.
inline void sparse_row_times(std::span<const std::size_t> cols,
                             const float* values, const float* x,
                             std::size_t width, float* y) {
  constexpr std::size_t kTile = 8;
  for (std::size_t j0 = 0; j0 < width; j0 += kTile) {
    const std::size_t jn = std::min(kTile, width - j0);
    if (jn == kTile) {
      float acc[kTile] = {};
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const float v = values[i];
        const float* xr = x + cols[i] * width + j0;
        for (std::size_t jj = 0; jj < kTile; ++jj) acc[jj] += v * xr[jj];
      }
      std::copy(acc, acc + kTile, y + j0);
    } else {
      for (std::size_t jj = j0; jj < width; ++jj) {
        float sum = 0.0F;
        for (std::size_t i = 0; i < cols.size(); ++i) {
          sum += values[i] * x[cols[i] * width + jj];
        }
        y[jj] = sum;
      }
    }
  }
}

}  // namespace gnn4ip::tensor
