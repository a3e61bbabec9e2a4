#include "gnn/sag_pool.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contract.h"

namespace gnn4ip::gnn {

SagPool::SagPool(std::size_t dim, float ratio, util::Rng& rng)
    : scorer_(dim, 1, rng), ratio_(ratio) {
  GNN4IP_ENSURE(ratio > 0.0F && ratio <= 1.0F,
                "pooling ratio must be in (0, 1]");
}

SagPool::Result SagPool::forward(tensor::Tape& tape, const GraphTensors& g,
                                 tensor::Var x) {
  const std::size_t n = x.value().rows();
  GNN4IP_ENSURE(n > 0, "SagPool on empty graph");
  GNN4IP_ENSURE(n == g.num_nodes,
                "SagPool: node embedding rows != graph node count");

  // α = SCORE(X, A): one-channel GCN, no ReLU (gate activation is tanh).
  tensor::Var alpha = scorer_.forward(tape, g.adj, x, /*apply_relu=*/false);
  tensor::Var gate = tape.tanh_op(alpha);

  // Top-k selection on the raw scores (selection itself is
  // non-differentiable; gradients flow through the tanh gate). Order is
  // score descending, then index ascending: on ties the lowest indices
  // survive, the set a stable sort by score alone keeps.
  const auto wanted =
      static_cast<std::size_t>(std::ceil(ratio_ * static_cast<float>(n)));
  const std::size_t k = std::clamp<std::size_t>(wanted, 1, n);
  const tensor::Matrix& scores = alpha.value();
  const auto before = [&scores](std::size_t a, std::size_t b) {
    const float sa = scores.at(a, 0);
    const float sb = scores.at(b, 0);
    return sa > sb || (sa == sb && a < b);
  };
  std::vector<std::size_t> kept(n);
  std::iota(kept.begin(), kept.end(), 0);
  std::nth_element(kept.begin(), kept.begin() + static_cast<long>(k),
                   kept.end(), before);
  kept.resize(k);
  std::sort(kept.begin(), kept.end());

  // Gather (in original node order) and gate the surviving rows.
  tensor::Var x_kept = tape.select_rows(x, kept);
  tensor::Var gate_kept = tape.select_rows(gate, kept);
  return {tape.scale_rows(x_kept, gate_kept), std::move(kept)};
}

}  // namespace gnn4ip::gnn
