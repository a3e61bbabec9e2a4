// Graph Convolution layer (Kipf & Welling), Eq. 5 of the paper:
//   X⁽ˡ⁺¹⁾ = σ( D̂^{-1/2} Â D̂^{-1/2} · X⁽ˡ⁾ · W⁽ˡ⁾ + b )
// The normalized adjacency is precomputed (see featurize.h); the layer
// owns W and b.
#pragma once

#include <memory>

#include "tensor/tape.h"
#include "util/rng.h"

namespace gnn4ip::gnn {

class GcnLayer {
 public:
  GcnLayer(std::size_t in_dim, std::size_t out_dim, util::Rng& rng);

  /// Forward through one propagation step. `apply_relu=false` is used by
  /// the SAGPool scorer (its activation is tanh, applied by the caller).
  [[nodiscard]] tensor::Var forward(tensor::Tape& tape,
                                    std::shared_ptr<const tensor::Csr> adj,
                                    tensor::Var x, bool apply_relu = true);

  /// The same step off the tape (inference): T = X·W into `t`, then
  /// Y = Â·T + b, ReLU'd in place when `apply_relu`, into `y`. Both
  /// buffers are N×out_dim; `y` may be `x`, which is read only into T.
  /// Every float operation and its order match the tape forward.
  void forward(const tensor::Csr& adj, const tensor::Matrix& x,
               tensor::Matrix& t, tensor::Matrix& y, bool apply_relu) const;

  [[nodiscard]] std::size_t in_dim() const { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const { return out_dim_; }

  [[nodiscard]] tensor::Parameter& weight() { return weight_; }
  [[nodiscard]] tensor::Parameter& bias() { return bias_; }
  [[nodiscard]] const tensor::Parameter& weight() const { return weight_; }
  [[nodiscard]] const tensor::Parameter& bias() const { return bias_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  tensor::Parameter weight_;
  tensor::Parameter bias_;
};

}  // namespace gnn4ip::gnn
