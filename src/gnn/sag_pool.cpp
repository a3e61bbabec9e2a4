#include "gnn/sag_pool.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>

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
  // non-differentiable; gradients flow through the tanh gate).
  std::vector<std::size_t> kept = top_k(alpha.value());

  // Gather (in original node order) and gate the surviving rows.
  tensor::Var x_kept = tape.select_rows(x, kept);
  tensor::Var gate_kept = tape.select_rows(gate, kept);
  return {tape.scale_rows(x_kept, gate_kept), std::move(kept)};
}

std::vector<std::size_t> SagPool::top_k(const tensor::Matrix& alpha) const {
  const std::size_t n = alpha.rows();
  GNN4IP_ENSURE(n > 0 && alpha.cols() == 1, "top-k scores must be N×1, N > 0");
  const auto wanted =
      static_cast<std::size_t>(std::ceil(ratio_ * static_cast<float>(n)));
  const std::size_t k = std::clamp<std::size_t>(wanted, 1, n);
  // The k-th highest score, then one ascending pass: every row above it
  // is kept, and of the rows equal to it the lowest-indexed ones, until
  // k rows are kept. That is the set the order (α descending, index
  // ascending) puts first, already in ascending index order.
  const std::span<const float> scores = alpha.data();
  std::vector<float> ranked(scores.begin(), scores.end());
  std::nth_element(ranked.begin(), ranked.begin() + static_cast<long>(k - 1),
                   ranked.end(), std::greater<>());
  const float kth = ranked[k - 1];
  std::size_t ties = k;
  for (const float s : scores) ties -= s > kth ? 1 : 0;
  std::vector<std::size_t> kept;
  kept.reserve(k);
  for (std::size_t i = 0; i < n; ++i) {
    if (scores[i] > kth) {
      kept.push_back(i);
    } else if (scores[i] == kth && ties > 0) {
      kept.push_back(i);
      --ties;
    }
  }
  return kept;
}

}  // namespace gnn4ip::gnn
