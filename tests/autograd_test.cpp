// Autograd tape tests: every operator's analytic gradient is verified
// against central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tape.h"
#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng,
                     float lo = -1.0F, float hi = 1.0F) {
  Matrix m(r, c);
  for (float& x : m.data()) x = rng.uniform(lo, hi);
  return m;
}

/// Central finite-difference check: |analytic − numeric| must stay below
/// `tol` elementwise for parameter `p` of a scalar-valued function.
void check_gradient(Parameter& p,
                    const std::function<float()>& scalar_forward,
                    const Matrix& analytic, float tol = 2e-2F,
                    float eps = 1e-2F) {
  for (std::size_t r = 0; r < p.value.rows(); ++r) {
    for (std::size_t c = 0; c < p.value.cols(); ++c) {
      const float saved = p.value.at(r, c);
      p.value.at(r, c) = saved + eps;
      const float up = scalar_forward();
      p.value.at(r, c) = saved - eps;
      const float down = scalar_forward();
      p.value.at(r, c) = saved;
      const float numeric = (up - down) / (2.0F * eps);
      EXPECT_NEAR(analytic.at(r, c), numeric, tol)
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(Tape, ConstantHasNoGradient) {
  Tape tape;
  Var c = tape.constant(Matrix::from_rows({{1, 2}}));
  EXPECT_EQ(c.value().at(0, 1), 2.0F);
  EXPECT_TRUE(c.grad().empty());
}

TEST(Tape, ParameterAccumulatesIntoGrad) {
  Parameter p(Matrix::from_rows({{1.0F, 2.0F}}));
  const Matrix target = Matrix::from_rows({{0.0F, 1.0F}});
  // Two backward passes accumulate into p.grad until zero_grad().
  Matrix first_grad;
  for (int pass = 0; pass < 2; ++pass) {
    Tape tape;
    Var v = tape.parameter(p);
    Var sim = tape.cosine_similarity(v, tape.constant(target));
    tape.backward(sim);
    if (pass == 0) first_grad = p.grad;
  }
  EXPECT_LT(max_abs_diff(p.grad, add(first_grad, first_grad)), 1e-6F);
  p.zero_grad();
  EXPECT_FLOAT_EQ(p.grad.max_abs(), 0.0F);
}

TEST(Tape, MatmulGradient) {
  util::Rng rng(1);
  Parameter a(random_matrix(3, 4, rng));
  Parameter b(random_matrix(4, 2, rng));
  const Matrix target = random_matrix(1, 2, rng);

  auto forward = [&]() {
    Tape tape;
    Var va = tape.parameter(a);
    Var vb = tape.parameter(b);
    Var prod = tape.matmul(va, vb);
    Var pooled = tape.readout_sum(prod);
    Var t = tape.constant(target);
    return tape.cosine_similarity(pooled, t).value().at(0, 0);
  };
  // Analytic gradients.
  {
    Tape tape;
    Var va = tape.parameter(a);
    Var vb = tape.parameter(b);
    Var prod = tape.matmul(va, vb);
    Var pooled = tape.readout_sum(prod);
    Var t = tape.constant(target);
    Var sim = tape.cosine_similarity(pooled, t);
    tape.backward(sim);
  }
  check_gradient(a, forward, a.grad);
  const Matrix saved_b_grad = b.grad;
  a.zero_grad();
  b.zero_grad();
  check_gradient(b, forward, saved_b_grad);
}

TEST(Tape, SpmmGradientMatchesDenseMatmul) {
  util::Rng rng(2);
  auto sparse = std::make_shared<Csr>(
      3, 3, std::vector<std::size_t>{0, 2, 3, 5},
      std::vector<std::size_t>{0, 1, 1, 0, 2},
      std::vector<float>{0.5F, 0.5F, 1.0F, 0.3F, 0.7F});
  Parameter x(random_matrix(3, 2, rng));

  Tape tape;
  Var vx = tape.parameter(x);
  Var y = tape.spmm(sparse, vx);
  Var pooled = tape.readout_sum(y);
  const Matrix target = random_matrix(1, 2, rng);
  Var sim = tape.cosine_similarity(pooled, tape.constant(target));
  tape.backward(sim);
  const Matrix analytic = x.grad;
  x.zero_grad();

  auto forward = [&]() {
    Tape t2;
    Var v = t2.parameter(x);
    Var y2 = t2.spmm(sparse, v);
    Var pooled2 = t2.readout_sum(y2);
    return t2.cosine_similarity(pooled2, t2.constant(target))
        .value()
        .at(0, 0);
  };
  check_gradient(x, forward, analytic);
}

TEST(Tape, ReluGradientMasksNegative) {
  Parameter p(Matrix::from_rows({{-1.0F, 2.0F, 1.0F}}));
  Tape tape;
  Var v = tape.parameter(p);
  Var r = tape.relu(v);
  // Target chosen so the cosine gradient is nonzero on surviving lanes.
  Var target = tape.constant(Matrix::from_rows({{1.0F, 1.0F, 0.0F}}));
  Var sim = tape.cosine_similarity(r, target);
  tape.backward(sim);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 0.0F);  // negative input: no grad
  EXPECT_NE(p.grad.at(0, 1), 0.0F);
  EXPECT_NE(p.grad.at(0, 2), 0.0F);
}

TEST(Tape, TanhSigmoidGradients) {
  util::Rng rng(3);
  Parameter p(random_matrix(1, 4, rng));
  const Matrix target = random_matrix(1, 4, rng, 0.1F, 1.0F);
  auto forward = [&](bool use_tanh) {
    return [&, use_tanh]() {
      Tape tape;
      Var v = tape.parameter(p);
      Var act = use_tanh ? tape.tanh_op(v) : tape.sigmoid(v);
      return tape.cosine_similarity(act, tape.constant(target))
          .value()
          .at(0, 0);
    };
  };
  for (const bool use_tanh : {true, false}) {
    Tape tape;
    Var v = tape.parameter(p);
    Var act = use_tanh ? tape.tanh_op(v) : tape.sigmoid(v);
    Var sim = tape.cosine_similarity(act, tape.constant(target));
    tape.backward(sim);
    const Matrix analytic = p.grad;
    p.zero_grad();
    check_gradient(p, forward(use_tanh), analytic);
  }
}

TEST(Tape, AddAndBroadcastGradients) {
  util::Rng rng(4);
  Parameter a(random_matrix(3, 2, rng));
  Parameter bias(random_matrix(1, 2, rng));
  const Matrix target = random_matrix(1, 2, rng);

  Tape tape;
  Var va = tape.parameter(a);
  Var vb = tape.parameter(bias);
  Var sum = tape.add_row_broadcast(va, vb);
  Var pooled = tape.readout_mean(sum);
  Var sim = tape.cosine_similarity(pooled, tape.constant(target));
  tape.backward(sim);
  const Matrix ga = a.grad;
  const Matrix gb = bias.grad;
  a.zero_grad();
  bias.zero_grad();

  auto forward = [&]() {
    Tape t2;
    Var x = t2.parameter(a);
    Var y = t2.parameter(bias);
    Var s = t2.add_row_broadcast(x, y);
    Var pooled2 = t2.readout_mean(s);
    return t2.cosine_similarity(pooled2, t2.constant(target))
        .value()
        .at(0, 0);
  };
  check_gradient(a, forward, ga);
  check_gradient(bias, forward, gb);
}

TEST(Tape, SelectAndScaleRowsGradient) {
  util::Rng rng(5);
  Parameter x(random_matrix(4, 3, rng));
  Parameter scores(random_matrix(4, 1, rng, 0.1F, 1.0F));
  const std::vector<std::size_t> kept = {0, 2};
  const Matrix target = random_matrix(1, 3, rng);

  Tape tape;
  Var vx = tape.parameter(x);
  Var vs = tape.parameter(scores);
  Var gated = tape.scale_rows(vx, vs);
  Var selected = tape.select_rows(gated, kept);
  Var pooled = tape.readout_max(selected);
  Var sim = tape.cosine_similarity(pooled, tape.constant(target));
  tape.backward(sim);
  const Matrix gx = x.grad;
  const Matrix gs = scores.grad;
  x.zero_grad();
  scores.zero_grad();

  auto forward = [&]() {
    Tape t2;
    Var a = t2.parameter(x);
    Var b = t2.parameter(scores);
    Var gated2 = t2.scale_rows(a, b);
    Var sel = t2.select_rows(gated2, kept);
    Var pooled2 = t2.readout_max(sel);
    return t2.cosine_similarity(pooled2, t2.constant(target))
        .value()
        .at(0, 0);
  };
  check_gradient(x, forward, gx);
  check_gradient(scores, forward, gs);
  // Unselected rows of x receive gradient 0 only through scale_rows'
  // scores path; rows 1,3 must have zero feature gradient.
  EXPECT_FLOAT_EQ(gx.at(1, 0), 0.0F);
  EXPECT_FLOAT_EQ(gx.at(3, 2), 0.0F);
}

TEST(Tape, ReadoutGradients) {
  util::Rng rng(6);
  Parameter x(random_matrix(5, 3, rng));
  const Matrix target = random_matrix(1, 3, rng);
  for (const int mode : {0, 1, 2}) {
    auto apply = [mode](Tape& t, Var v) {
      if (mode == 0) return t.readout_sum(v);
      if (mode == 1) return t.readout_mean(v);
      return t.readout_max(v);
    };
    Tape tape;
    Var v = tape.parameter(x);
    Var pooled = apply(tape, v);
    Var sim = tape.cosine_similarity(pooled, tape.constant(target));
    tape.backward(sim);
    const Matrix analytic = x.grad;
    x.zero_grad();
    auto forward = [&]() {
      Tape t2;
      Var v2 = t2.parameter(x);
      Var pooled2 = apply(t2, v2);
      return t2.cosine_similarity(pooled2, t2.constant(target))
          .value()
          .at(0, 0);
    };
    check_gradient(x, forward, analytic);
  }
}

TEST(Tape, CosineSimilarityValueAndRange) {
  Tape tape;
  Var a = tape.constant(Matrix::from_rows({{1, 0}}));
  Var b = tape.constant(Matrix::from_rows({{0, 1}}));
  EXPECT_NEAR(tape.cosine_similarity(a, a).value().at(0, 0), 1.0F, 1e-6F);
  EXPECT_NEAR(tape.cosine_similarity(a, b).value().at(0, 0), 0.0F, 1e-6F);
  Var c = tape.constant(Matrix::from_rows({{-1, 0}}));
  EXPECT_NEAR(tape.cosine_similarity(a, c).value().at(0, 0), -1.0F, 1e-6F);
}

TEST(Tape, CosineEmbeddingLossEquation7) {
  // Y = 1: loss = 1 − ŷ ; Y = −1: loss = max(0, ŷ − margin).
  Tape tape;
  Var sim = tape.constant(Matrix::from_rows({{0.8F}}));
  EXPECT_NEAR(tape.cosine_embedding_loss(sim, 1, 0.5F).value().at(0, 0),
              0.2F, 1e-6F);
  EXPECT_NEAR(tape.cosine_embedding_loss(sim, -1, 0.5F).value().at(0, 0),
              0.3F, 1e-6F);
  Var low = tape.constant(Matrix::from_rows({{0.3F}}));
  EXPECT_NEAR(tape.cosine_embedding_loss(low, -1, 0.5F).value().at(0, 0),
              0.0F, 1e-6F);
}

TEST(Tape, CosineEmbeddingLossGradientThroughSimilarity) {
  util::Rng rng(8);
  Parameter a(random_matrix(1, 4, rng));
  const Matrix b = random_matrix(1, 4, rng);
  for (const int label : {1, -1}) {
    Tape tape;
    Var va = tape.parameter(a);
    Var vb = tape.constant(b);
    Var sim = tape.cosine_similarity(va, vb);
    Var loss = tape.cosine_embedding_loss(sim, label, 0.5F);
    tape.backward(loss);
    const Matrix analytic = a.grad;
    a.zero_grad();
    auto forward = [&]() {
      Tape t2;
      Var v2 = t2.parameter(a);
      Var s2 = t2.cosine_similarity(v2, t2.constant(b));
      return t2.cosine_embedding_loss(s2, label, 0.5F).value().at(0, 0);
    };
    check_gradient(a, forward, analytic);
  }
}

TEST(Tape, SumScalarsAndScale) {
  Tape tape;
  Parameter p(Matrix::from_rows({{2.0F}}));
  Var v = tape.parameter(p);
  Var doubled = tape.scale(v, 3.0F);
  Var total = tape.sum_scalars({doubled, doubled});
  EXPECT_FLOAT_EQ(total.value().at(0, 0), 12.0F);
  tape.backward(total);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 6.0F);  // 2 paths × 3
}

TEST(Tape, DropoutTrainFalseIsIdentity) {
  util::Rng rng(10);
  Tape tape;
  Parameter p(random_matrix(2, 2, rng));
  Var v = tape.parameter(p);
  Var d = tape.dropout(v, 0.5F, rng, /*training=*/false);
  EXPECT_LT(max_abs_diff(d.value(), p.value), 1e-7F);
}

TEST(Tape, DropoutScalesSurvivors) {
  util::Rng rng(11);
  Tape tape;
  Var v = tape.constant(Matrix::ones(100, 10));
  Var d = tape.dropout(v, 0.4F, rng, /*training=*/true);
  int zeros = 0;
  int scaled = 0;
  for (float x : d.value().data()) {
    if (x == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(x, 1.0F / 0.6F, 1e-5F);
      ++scaled;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.4, 0.05);
  EXPECT_GT(scaled, 0);
}

TEST(Tape, DropoutBackwardUsesSameMask) {
  util::Rng rng(12);
  Parameter p(Matrix::ones(1, 50));
  Tape tape;
  Var v = tape.parameter(p);
  Var d = tape.dropout(v, 0.5F, rng, true);
  Var pooled = tape.readout_sum(d);
  Var target = tape.constant(Matrix::ones(1, 50));
  Var sim = tape.cosine_similarity(d, target);
  (void)pooled;
  tape.backward(sim);
  // Dropped positions (forward zero) must have zero gradient.
  for (std::size_t c = 0; c < 50; ++c) {
    if (d.value().at(0, c) == 0.0F) {
      EXPECT_FLOAT_EQ(p.grad.at(0, c), 0.0F);
    }
  }
}

TEST(Tape, ResetReusesTapeBitIdentically) {
  util::Rng rng(13);
  Parameter w(random_matrix(3, 2, rng));
  const Matrix x = random_matrix(2, 3, rng);
  const Matrix target = random_matrix(1, 2, rng);

  auto run = [&](Tape& tape) {
    Var vx = tape.constant(x);
    Var vw = tape.parameter(w);
    Var prod = tape.matmul(vx, vw);
    Var pooled = tape.readout_mean(tape.relu(prod));
    Var sim = tape.cosine_similarity(pooled, tape.constant(target));
    tape.backward(sim);
    return sim.value().at(0, 0);
  };

  Tape fresh;
  const float first = run(fresh);
  const std::size_t nodes_used = fresh.num_nodes();
  const Matrix first_grad = w.grad;
  w.zero_grad();

  // Same tape, reset: same value, same gradient, same node count.
  fresh.reset();
  EXPECT_EQ(fresh.num_nodes(), 0u);
  const float second = run(fresh);
  EXPECT_EQ(first, second);
  EXPECT_EQ(fresh.num_nodes(), nodes_used);
  EXPECT_EQ(max_abs_diff(first_grad, w.grad), 0.0F);
}

TEST(Tape, GradSinkCapturesLeafGradients) {
  util::Rng rng(14);
  Parameter w(random_matrix(2, 2, rng));
  const Matrix target = random_matrix(1, 2, rng);

  // Reference: plain backward into Parameter::grad.
  {
    Tape tape;
    Var vw = tape.parameter(w);
    Var sim = tape.cosine_similarity(tape.readout_sum(vw),
                                     tape.constant(target));
    tape.backward(sim);
  }
  const Matrix reference = w.grad;
  w.zero_grad();

  // Shadow mode: Parameter::grad stays untouched until add_into_params.
  GradSink sink;
  Tape tape;
  tape.set_grad_sink(&sink);
  Var vw = tape.parameter(w);
  Var sim =
      tape.cosine_similarity(tape.readout_sum(vw), tape.constant(target));
  tape.backward(sim);
  EXPECT_FLOAT_EQ(w.grad.max_abs(), 0.0F);
  ASSERT_EQ(sink.num_params(), 1u);
  EXPECT_EQ(max_abs_diff(sink.shadow(w), reference), 0.0F);

  sink.add_into_params();
  EXPECT_EQ(max_abs_diff(w.grad, reference), 0.0F);

  // clear() zeroes the shadow but keeps the buffer registered.
  sink.clear();
  EXPECT_FLOAT_EQ(sink.shadow(w).max_abs(), 0.0F);
  EXPECT_EQ(sink.num_params(), 1u);
}

TEST(Tape, SeededBackwardMatchesAnalyticJacobian) {
  // h = x·W (1×2); backward seeded with dy gives dW = xᵀ·dy exactly.
  Parameter w(Matrix::from_rows({{1.0F, -2.0F}, {0.5F, 3.0F}}));
  const Matrix x = Matrix::from_rows({{2.0F, -1.0F}});
  const Matrix seed = Matrix::from_rows({{0.25F, -4.0F}});

  Tape tape;
  Var vw = tape.parameter(w);
  Var h = tape.matmul(tape.constant(x), vw);
  tape.backward(h, seed);
  const Matrix expected = matmul_at_b(x, seed);
  EXPECT_EQ(max_abs_diff(w.grad, expected), 0.0F);
}

TEST(Tape, SeededBackwardRejectsShapeMismatch) {
  Tape tape;
  Parameter p(Matrix::ones(1, 3));
  Var v = tape.parameter(p);
  EXPECT_THROW(tape.backward(v, Matrix::ones(2, 2)),
               util::ContractViolation);
}

TEST(Tape, CrossTapeVarRejected) {
  Tape t1;
  Tape t2;
  Var v = t1.constant(Matrix::ones(1, 1));
  EXPECT_THROW(t2.relu(v), util::ContractViolation);
}

TEST(Tape, BackwardRequiresScalar) {
  Tape tape;
  Parameter p(Matrix::ones(2, 2));
  Var v = tape.parameter(p);
  EXPECT_THROW(tape.backward(v), util::ContractViolation);
}

}  // namespace
}  // namespace gnn4ip::tensor
