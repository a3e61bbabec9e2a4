// Reverse-mode automatic differentiation on matrices.
//
// A Tape owns a sequence of nodes created by operator methods; calling
// backward(loss) seeds dL/dL = 1 and runs the recorded closures in
// reverse order. Leaves created from a Parameter accumulate their
// gradient into Parameter::grad by default, so one Tape per mini-batch
// implements exactly the "sum gradients over batch, then step" loop the
// paper's batch gradient descent requires.
//
// For data-parallel training each batch graph runs forward + backward on
// its own Tape with a GradSink installed: parameter leaves then
// accumulate into the sink's per-parameter shadow buffers instead of
// racing on Parameter::grad, and the trainer folds the sinks into
// Parameter::grad in fixed graph-index order — so the reduced gradient
// is bit-identical for any worker count. reset() clears a tape for the
// next graph while keeping the node vector's capacity (and the sink),
// which removes per-graph allocation churn from the step hot path.
//
// Every operation the hw2vec architecture needs is provided: (sparse)
// matmul for Eq. 5 propagation, ReLU/tanh/sigmoid/dropout, row selection
// and row scaling for the self-attention top-k pooling, max/mean/sum
// readout for Eq. 3, cosine similarity for Eq. 6, and the cosine
// embedding loss of Eq. 7.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace gnn4ip::tensor {

class Tape;

/// Trainable weight living outside any tape. `grad` accumulates across
/// backward() calls until the optimizer consumes and clears it.
struct Parameter {
  explicit Parameter(Matrix init)
      : value(std::move(init)), grad(value.rows(), value.cols(), 0.0F) {}

  Matrix value;
  Matrix grad;

  void zero_grad() { grad.fill(0.0F); }
};

/// Shadow gradient accumulator for race-free parallel backward passes.
///
/// While installed on a tape (Tape::set_grad_sink), parameter leaves add
/// their gradient into shadow(p) instead of Parameter::grad, so several
/// tapes can run backward concurrently over the same model. The shadows
/// are folded into the parameters afterwards with add_into_params();
/// folding the sinks in a fixed order (graph-index order in the trainer)
/// keeps the float summation order — and therefore the whole training
/// trajectory — independent of the worker count.
class GradSink {
 public:
  /// Shadow buffer for `p`: zero-allocated on first use, reused (and
  /// kept allocated across clear()) afterwards.
  [[nodiscard]] Matrix& shadow(Parameter& p);

  /// Fold every shadow into its parameter's grad, in the order the
  /// parameters were first seen by this sink (forward order, which is
  /// deterministic for a fixed model architecture).
  void add_into_params();

  /// Zero all shadows, keeping their allocations for the next pass.
  void clear();

  [[nodiscard]] std::size_t num_params() const { return shadows_.size(); }

 private:
  std::vector<std::pair<Parameter*, Matrix>> shadows_;
};

/// Lightweight handle to a tape node.
class Var {
 public:
  Var() = default;

  [[nodiscard]] bool valid() const { return tape_ != nullptr; }
  [[nodiscard]] const Matrix& value() const;
  /// Gradient w.r.t. this node after backward(); zeros if grad never
  /// flowed here.
  [[nodiscard]] const Matrix& grad() const;

 private:
  friend class Tape;
  Var(Tape* tape, std::size_t index) : tape_(tape), index_(index) {}

  Tape* tape_ = nullptr;
  std::size_t index_ = 0;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- leaves ---------------------------------------------------------
  /// Non-trainable input (node features, labels).
  Var constant(Matrix value);
  /// Trainable leaf: backward() adds into p.grad.
  Var parameter(Parameter& p);

  // --- linear algebra --------------------------------------------------
  Var matmul(Var a, Var b);
  /// Sparse constant × dense variable (adjacency propagation). The tape
  /// shares ownership of `s`, so the operator outlives the backward pass
  /// whatever happens to the caller's copy.
  Var spmm(std::shared_ptr<const Csr> s, Var x);
  Var add(Var a, Var b);
  /// a (N×C) + bias (1×C) broadcast over rows.
  Var add_row_broadcast(Var a, Var bias);
  Var scale(Var a, float factor);

  // --- nonlinearities ---------------------------------------------------
  Var relu(Var a);
  Var tanh_op(Var a);
  Var sigmoid(Var a);
  /// Inverted dropout; identity when !training or rate == 0.
  Var dropout(Var a, float rate, util::Rng& rng, bool training);

  // --- pooling / readout -------------------------------------------------
  /// Gather the given rows (top-k pooling selection).
  Var select_rows(Var a, std::vector<std::size_t> rows);
  /// Scale row i of a (N×C) by s(i,0) where s is N×1 (attention gating).
  Var scale_rows(Var a, Var s);
  /// Column-wise max over rows -> 1×C (gradient to argmax rows).
  Var readout_max(Var a);
  /// Column-wise mean over rows -> 1×C.
  Var readout_mean(Var a);
  /// Column-wise sum over rows -> 1×C.
  Var readout_sum(Var a);

  // --- objectives ---------------------------------------------------------
  /// Cosine similarity of two 1×C (or equal-shape) values -> 1×1.
  Var cosine_similarity(Var a, Var b);
  /// Eq. 7: label +1 -> 1 − ŷ ; label −1 -> max(0, ŷ − margin). sim is 1×1.
  Var cosine_embedding_loss(Var sim, int label, float margin);
  /// Sum of 1×1 scalars (batch loss).
  Var sum_scalars(const std::vector<Var>& scalars);

  // --- engine ---------------------------------------------------------------
  /// Run reverse pass from `loss` (must be 1×1).
  void backward(Var loss);
  /// Run reverse pass from `output` seeded with dL/d(output) = `seed`
  /// (same shape as the output). This is how a per-graph tape receives
  /// the closed-form gradient of a cross-graph loss (e.g. the cosine
  /// embedding loss between two embeddings living on different tapes).
  void backward(Var output, const Matrix& seed);

  /// Redirect (or, with nullptr, restore) parameter-leaf gradient
  /// accumulation to a shadow sink. The sink must outlive every
  /// backward() call on this tape while installed.
  void set_grad_sink(GradSink* sink) { sink_ = sink; }
  [[nodiscard]] GradSink* grad_sink() const { return sink_; }

  /// Drop all nodes but keep the node vector's capacity (and the
  /// installed sink), so a tape reused across graphs stops reallocating
  /// its node array. Vars handed out before reset() are invalidated.
  void reset() { nodes_.clear(); }

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;               // allocated lazily
    bool needs_grad = false;
    bool grad_allocated = false;
    Parameter* param = nullptr;
    std::function<void(Tape&)> backward_fn;
  };

  friend class Var;

  Var make_node(Matrix value, bool needs_grad);
  Node& node(std::size_t index);
  const Node& cnode(std::size_t index) const;
  /// Gradient accumulator for node `index` (allocates zeros on demand).
  Matrix& grad_of(std::size_t index);
  void check_owned(Var v) const;
  void run_backward();

  std::vector<Node> nodes_;
  GradSink* sink_ = nullptr;
  Matrix empty_grad_;  // returned for nodes that never received gradient
};

}  // namespace gnn4ip::tensor
