// Adam over tensor::Parameter collections — the one optimizer the
// trainer steps.
//
// The paper states batch gradient descent at lr = 1e-3. With Adam, the
// cosine-embedding loss converges in the epoch budgets the benches run,
// at 3e-3 (bench/common.h); β1 = 0.9, β2 = 0.999 and ε = 1e-8 are
// PyTorch's defaults.
#pragma once

#include <vector>

#include "tensor/tape.h"

namespace gnn4ip::train {

class Adam {
 public:
  Adam(std::vector<tensor::Parameter*> params, float lr);

  /// Apply each parameter's gradient. Called on the coordinating thread
  /// only, after the trainer has folded all per-graph shadow gradients
  /// into Parameter::grad in fixed graph order, so the step never sees
  /// a partially-reduced or concurrently-mutated gradient. The
  /// gradients are left in place; the trainer zeroes them before it
  /// folds the next step's.
  void step();

 private:
  std::vector<tensor::Parameter*> params_;
  float lr_;
  long step_count_ = 0;
  std::vector<tensor::Matrix> first_moment_;
  std::vector<tensor::Matrix> second_moment_;
};

}  // namespace gnn4ip::train
