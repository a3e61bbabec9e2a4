// Self-attention graph pooling (Lee et al. [28], paper §III-C).
//
// A single-output GCN predicts a score per node:
//   α = SCORE(X_prop, A_prop)
// The top ⌈ratio·N⌉ nodes by α are kept, and the surviving node features
// are gated by tanh(α) so the scorer receives gradient. Unlike Lee et
// al.'s layer, no pooled adjacency is returned: nothing propagates after
// the pool, and the readout (Eq. 3) reads only the kept rows.
#pragma once

#include <vector>

#include "gnn/featurize.h"
#include "gnn/gcn_layer.h"
#include "tensor/tape.h"

namespace gnn4ip::gnn {

class SagPool {
 public:
  /// `dim` is the node-embedding width entering the pool; `ratio` the
  /// keep fraction in (0, 1].
  SagPool(std::size_t dim, float ratio, util::Rng& rng);

  struct Result {
    tensor::Var x;                  // pooled node embeddings
    std::vector<std::size_t> kept;  // original node indices, ascending
  };

  /// Pool the propagated node embeddings `x` (one row per node of `g`);
  /// the scorer propagates over `g.adj`.
  [[nodiscard]] Result forward(tensor::Tape& tape, const GraphTensors& g,
                               tensor::Var x);

  /// The rows kept for scores α (N×1, N > 0): the ⌈ratio·N⌉ highest,
  /// clamped to [1, N], ordered by α descending then index ascending (on
  /// ties the lowest indices survive); returned in ascending order.
  [[nodiscard]] std::vector<std::size_t> top_k(
      const tensor::Matrix& alpha) const;

  [[nodiscard]] GcnLayer& scorer() { return scorer_; }
  [[nodiscard]] const GcnLayer& scorer() const { return scorer_; }
  [[nodiscard]] float ratio() const { return ratio_; }

 private:
  GcnLayer scorer_;
  float ratio_;
};

}  // namespace gnn4ip::gnn
