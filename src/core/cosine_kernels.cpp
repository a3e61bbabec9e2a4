#include "core/cosine_kernels.h"

#include <cmath>

namespace gnn4ip::core {

float row_norm(std::span<const float> row) {
  float sq = 0.0F;
  for (const float v : row) sq += v * v;
  return std::sqrt(sq);
}

}  // namespace gnn4ip::core
