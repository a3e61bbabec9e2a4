// Training-stack tests: Adam, pair dataset, metrics, trainer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/cosine_kernels.h"
#include "core/gnn4ip.h"
#include "gnn/model_io.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace gnn4ip::train {
namespace {

TEST(Optimizer, AdamFirstStepIsLrSized) {
  tensor::Parameter p(tensor::Matrix::from_rows({{1.0F}}));
  Adam adam({&p}, /*lr=*/0.01F);
  p.grad.at(0, 0) = 5.0F;  // any positive gradient: first step ≈ lr
  adam.step();
  EXPECT_NEAR(p.value.at(0, 0), 1.0F - 0.01F, 1e-4F);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize (x-3)^2 — gradient 2(x-3).
  tensor::Parameter p(tensor::Matrix::from_rows({{-4.0F}}));
  Adam adam({&p}, 0.2F);
  for (int i = 0; i < 300; ++i) {
    p.grad.at(0, 0) = 2.0F * (p.value.at(0, 0) - 3.0F);
    adam.step();
  }
  EXPECT_NEAR(p.value.at(0, 0), 3.0F, 0.05F);
}

// --- dataset -----------------------------------------------------------------

std::vector<GraphEntry> toy_entries(int families, int per_family) {
  // Tiny synthetic graphs; design key drives the labels.
  std::vector<GraphEntry> entries;
  for (int f = 0; f < families; ++f) {
    for (int i = 0; i < per_family; ++i) {
      graph::Digraph g;
      g.add_node("out", 1);
      for (int k = 0; k < 2 + f; ++k) {
        g.add_node("n", 5 + f);
        g.add_edge(0, static_cast<graph::NodeId>(k + 1));
      }
      GraphEntry e;
      e.name = "g" + std::to_string(f) + "_" + std::to_string(i);
      e.design = "design" + std::to_string(f);
      e.tensors = gnn::featurize(g);
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

TEST(PairDataset, AllPairsCountsAndLabels) {
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 4));
  // 12 graphs -> 66 pairs; similar = 3 * C(4,2) = 18.
  EXPECT_EQ(ds.pairs().size(), 66u);
  EXPECT_EQ(ds.num_similar(), 18u);
  EXPECT_EQ(ds.num_different(), 48u);
  for (const PairSample& p : ds.pairs()) {
    const bool same =
        ds.graphs()[p.a].design == ds.graphs()[p.b].design;
    EXPECT_EQ(p.label, same ? 1 : -1);
  }
}

// Pins which different-design pairs the paper's 3.49:1 cap keeps (the
// cap and its fixed-seed shuffle): an FNV-1a fold of every pair's a,
// then b, in pairs() order.
TEST(PairDataset, NegativeSubsamplingPinned) {
  const PairDataset ds = PairDataset::all_pairs(toy_entries(6, 3), 3.49);
  EXPECT_EQ(ds.num_similar(), 18U);
  EXPECT_EQ(ds.num_different(), 62U);  // of 135
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const PairSample& p : ds.pairs()) {
    for (const std::uint64_t v : {p.a, p.b}) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0x9c6ece4220339af0ULL) << "pairs hash to 0x" << std::hex << h;
}

TEST(PairDataset, StratifiedSplitPreservesRatio) {
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 6));
  util::Rng rng(5);
  const auto split = ds.split(0.25, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.pairs().size());
  auto count_similar = [&ds](const std::vector<std::size_t>& indices) {
    std::size_t n = 0;
    for (std::size_t i : indices) {
      if (ds.pairs()[i].label == 1) ++n;
    }
    return n;
  };
  const double train_ratio =
      static_cast<double>(count_similar(split.train)) / split.train.size();
  const double test_ratio =
      static_cast<double>(count_similar(split.test)) / split.test.size();
  EXPECT_NEAR(train_ratio, test_ratio, 0.05);
}

TEST(PairDataset, SplitDisjoint) {
  const PairDataset ds = PairDataset::all_pairs(toy_entries(2, 4));
  util::Rng rng(6);
  const auto split = ds.split(0.3, rng);
  std::vector<bool> seen(ds.pairs().size(), false);
  for (std::size_t i : split.train) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  for (std::size_t i : split.test) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, ConfusionAtThreshold) {
  const std::vector<float> scores = {0.9F, 0.8F, 0.2F, -0.5F};
  const std::vector<int> labels = {1, -1, 1, -1};
  const ConfusionMatrix cm = confusion_at(scores, labels, 0.5F);
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.tn, 1u);
  EXPECT_NEAR(cm.accuracy(), 0.5, 1e-9);
  EXPECT_NEAR(cm.false_negative_rate(), 0.5, 1e-9);
}

TEST(Metrics, PrecisionRecallF1) {
  ConfusionMatrix cm;
  cm.tp = 8;
  cm.fp = 2;
  cm.fn = 4;
  cm.tn = 6;
  EXPECT_NEAR(cm.precision(), 0.8, 1e-9);
  EXPECT_NEAR(cm.recall(), 8.0 / 12.0, 1e-9);
  const double f1 = cm.f1();
  EXPECT_GT(f1, 0.7);
  EXPECT_LT(f1, 0.8);
}

TEST(Metrics, DegenerateCasesZero) {
  ConfusionMatrix cm;
  EXPECT_EQ(cm.accuracy(), 0.0);
  EXPECT_EQ(cm.precision(), 0.0);
  EXPECT_EQ(cm.recall(), 0.0);
  EXPECT_EQ(cm.f1(), 0.0);
  EXPECT_EQ(cm.false_negative_rate(), 0.0);
}

TEST(Metrics, TuneThresholdSeparable) {
  // Perfectly separable at delta ∈ (0.3, 0.7).
  const std::vector<float> scores = {0.9F, 0.7F, 0.3F, 0.1F};
  const std::vector<int> labels = {1, 1, -1, -1};
  const float delta = tune_threshold(scores, labels);
  const ConfusionMatrix cm = confusion_at(scores, labels, delta);
  EXPECT_NEAR(cm.accuracy(), 1.0, 1e-9);
  EXPECT_GT(delta, 0.3F);
  EXPECT_LT(delta, 0.7F);
}

TEST(Metrics, TuneThresholdNoisy) {
  const std::vector<float> scores = {0.9F, 0.2F, 0.8F, 0.4F, 0.1F};
  const std::vector<int> labels = {1, 1, -1, -1, -1};
  const float delta = tune_threshold(scores, labels);
  // Best achievable accuracy here is 3/5 (delta above 0.9 or in (0.4,0.8) etc.)
  EXPECT_GE(confusion_at(scores, labels, delta).accuracy(), 0.6 - 1e-9);
}

// --- trainer ------------------------------------------------------------------

TEST(Trainer, LossDecreasesOnToyCorpus) {
  gnn::Hw2VecConfig mc;
  mc.hidden_dim = 8;
  mc.seed = 3;
  gnn::Hw2Vec model(mc);
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 5));
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_graphs = 15;
  tc.learning_rate = 5e-3F;
  tc.seed = 9;
  Trainer trainer(model, ds, tc);
  const EpochStats first = trainer.train_epoch();
  EpochStats last = first;
  for (int e = 0; e < 14; ++e) last = trainer.train_epoch();
  EXPECT_LT(last.mean_loss, first.mean_loss);
}

TEST(Trainer, EvaluateSeparatesToyFamilies) {
  gnn::Hw2VecConfig mc;
  mc.hidden_dim = 8;
  mc.seed = 4;
  gnn::Hw2Vec model(mc);
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 6));
  TrainConfig tc;
  tc.epochs = 25;
  tc.batch_graphs = 18;
  tc.learning_rate = 5e-3F;
  tc.seed = 10;
  Trainer trainer(model, ds, tc);
  trainer.fit();
  const EvalResult result = trainer.evaluate();
  // Toy families are trivially separable; expect high accuracy.
  EXPECT_GT(result.confusion.accuracy(), 0.85);
  EXPECT_EQ(result.scores.size(), trainer.split().test.size());
  EXPECT_GT(result.seconds_per_sample, 0.0);
}

TEST(Trainer, EmbedAllIdenticalAcross1And2And8Workers) {
  // The parallel embed_all fan-out must never change the embeddings:
  // same model, same graphs, any worker count -> bit-identical rows.
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 4));
  std::vector<std::vector<tensor::Matrix>> per_count;
  for (std::size_t threads : {1u, 2u, 8u}) {
    gnn::Hw2VecConfig mc;
    mc.hidden_dim = 8;
    mc.seed = 21;
    gnn::Hw2Vec model(mc);
    TrainConfig tc;
    tc.seed = 22;
    tc.num_threads = threads;
    Trainer trainer(model, ds, tc);
    per_count.push_back(trainer.embed_all());
  }
  ASSERT_EQ(per_count.size(), 3u);
  ASSERT_EQ(per_count[0].size(), ds.graphs().size());
  for (std::size_t g = 0; g < per_count[0].size(); ++g) {
    EXPECT_EQ(tensor::max_abs_diff(per_count[0][g], per_count[1][g]), 0.0F);
    EXPECT_EQ(tensor::max_abs_diff(per_count[0][g], per_count[2][g]), 0.0F);
  }
}

/// Every element of `a` and `b` has the same bits.
void expect_same_bits(const tensor::Matrix& a, const tensor::Matrix& b,
                      std::size_t param) {
  ASSERT_TRUE(a.same_shape(b)) << "parameter " << param;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.data()[i]),
              std::bit_cast<std::uint32_t>(b.data()[i]))
        << "parameter " << param << ", element " << i;
  }
}

/// One trainer step on the single pair of two differently shaped graphs
/// against the same step built on one tape from the model's own ops:
/// embed both, cosine_similarity, cosine_embedding_loss, backward.
void expect_step_matches_tape(bool same_design) {
  gnn::Hw2VecConfig mc;
  mc.hidden_dim = 8;
  mc.dropout = 0.0F;  // keeps the two paths' forwards identical
  mc.seed = 41;
  std::vector<GraphEntry> entries = toy_entries(2, 1);
  if (same_design) entries[1].design = entries[0].design;
  const PairDataset ds = PairDataset::all_pairs(std::move(entries));
  ASSERT_EQ(ds.pairs().size(), 1U);
  const int label = ds.pairs()[0].label;
  ASSERT_EQ(label, same_design ? 1 : -1);

  TrainConfig tc;
  tc.batch_graphs = 2;
  tc.max_steps_per_epoch = 1;
  tc.learning_rate = 1e-2F;
  tc.seed = 42;
  gnn::Hw2Vec trained(mc);
  Trainer trainer(trained, ds, tc);
  ASSERT_EQ(trainer.split().train.size(), 1U);  // nothing held out
  const EpochStats stats = trainer.train_epoch();
  ASSERT_EQ(stats.steps, 1U);
  ASSERT_EQ(stats.pairs_seen, 1U);
  // A zero loss would leave the seed, and so the step, at zero.
  EXPECT_GT(stats.mean_loss, 0.0);

  gnn::Hw2Vec reference(mc);
  tensor::Tape tape;
  util::Rng unused(0);
  const tensor::Var ha =
      reference.embed(tape, ds.graphs()[0].tensors, unused, true);
  const tensor::Var hb =
      reference.embed(tape, ds.graphs()[1].tensors, unused, true);
  const tensor::Var loss = tape.cosine_embedding_loss(
      tape.cosine_similarity(ha, hb), label, kMargin);
  const tensor::Var mean = tape.scale(loss, 1.0F);  // one pair in the batch
  tape.backward(mean);
  EXPECT_EQ(stats.mean_loss, static_cast<double>(mean.value().at(0, 0)));

  const auto got = trained.parameters();
  const auto want = reference.parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_bits(got[i]->grad, want[i]->grad, i);
  }
  Adam(want, tc.learning_rate).step();
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_bits(got[i]->value, want[i]->value, i);
  }
}

TEST(Trainer, ParallelStepGradientMatchesTapeBuiltLoss) {
  // The closed-form cosine/Eq. 7 seed inside the parallel step must
  // mirror the tape-built cosine_similarity + cosine_embedding_loss
  // backward bit for bit: the reduced gradient the step leaves in
  // Parameter::grad, the loss it reports and the weights after Adam.
  {
    SCOPED_TRACE("same design: label +1");
    expect_step_matches_tape(true);
  }
  {
    SCOPED_TRACE("different designs: label -1, hinge active");
    expect_step_matches_tape(false);
  }
}

/// Run fit() epoch by epoch with a pinned worker count; returns the loss
/// curve and leaves the trained parameters in `params_out`.
std::vector<double> loss_curve_for_threads(
    std::size_t threads, int epochs, std::vector<tensor::Matrix>& params_out) {
  gnn::Hw2VecConfig mc;
  mc.hidden_dim = 8;
  mc.seed = 31;
  gnn::Hw2Vec model(mc);
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 5));
  TrainConfig tc;
  tc.batch_graphs = 8;
  tc.max_steps_per_epoch = 4;
  tc.learning_rate = 5e-3F;
  tc.seed = 32;
  tc.num_threads = threads;
  Trainer trainer(model, ds, tc);
  std::vector<double> curve;
  curve.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    curve.push_back(trainer.train_epoch().mean_loss);
  }
  params_out.clear();
  for (tensor::Parameter* p : model.parameters()) {
    params_out.push_back(p->value);
  }
  return curve;
}

TEST(Trainer, FitBitIdenticalAcross1And2And8Workers) {
  // The whole training trajectory — per-epoch mean losses and the final
  // weights — must be byte-equal for any worker count: per-graph tapes
  // accumulate into shadow sinks that are folded in fixed graph order,
  // so the arithmetic never depends on the schedule.
  std::vector<std::vector<double>> curves;
  std::vector<std::vector<tensor::Matrix>> params;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<tensor::Matrix> trained;
    curves.push_back(loss_curve_for_threads(threads, 6, trained));
    params.push_back(std::move(trained));
  }
  ASSERT_EQ(curves.size(), 3u);
  for (std::size_t v = 1; v < curves.size(); ++v) {
    ASSERT_EQ(curves[v].size(), curves[0].size());
    for (std::size_t e = 0; e < curves[0].size(); ++e) {
      EXPECT_EQ(curves[0][e], curves[v][e])
          << "loss diverged at epoch " << e << " with variant " << v;
    }
    ASSERT_EQ(params[v].size(), params[0].size());
    for (std::size_t p = 0; p < params[0].size(); ++p) {
      EXPECT_EQ(tensor::max_abs_diff(params[0][p], params[v][p]), 0.0F)
          << "parameter " << p << " diverged with variant " << v;
    }
  }
  // Sanity: six epochs of training actually moved the loss.
  EXPECT_NE(curves[0].front(), curves[0].back());
}

// Pins the trained weights' bits: the backward pass (spmm's Âᵀ·dY
// included) must keep producing exactly these weights. A different
// fingerprint means a kernel changed the arithmetic of training.
TEST(Trainer, FitModelFingerprintPinned) {
  gnn::Hw2VecConfig mc;
  mc.hidden_dim = 8;
  mc.seed = 6;
  gnn::Hw2Vec model(mc);
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 4));
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_graphs = 12;
  tc.learning_rate = 5e-3F;
  tc.seed = 13;
  Trainer trainer(model, ds, tc);
  trainer.fit();
  EXPECT_EQ(gnn::model_fingerprint(model), "08d193a8a951265f");
}

// δ is tuned on evaluate()'s scores and then compared against scores
// from core::cosine_cell (AuditService, PiracyDetector::similarity), so
// the two must be the same bits, not merely close.
TEST(Trainer, EvaluateScoresAreCosineCellBitForBit) {
  gnn::Hw2VecConfig mc;
  mc.hidden_dim = 8;
  gnn::Hw2Vec model(mc);
  const PairDataset ds = PairDataset::all_pairs(toy_entries(3, 6));
  TrainConfig tc;
  tc.epochs = 2;
  tc.seed = 12;
  Trainer trainer(model, ds, tc);
  trainer.fit();
  const std::vector<tensor::Matrix> embeddings = trainer.embed_all();
  const EvalResult result = trainer.evaluate();
  const std::vector<std::size_t>& test = trainer.split().test;
  ASSERT_EQ(result.scores.size(), test.size());
  ASSERT_GE(test.size(), 6U);
  for (std::size_t k = 0; k < test.size(); ++k) {
    const PairSample& p = ds.pairs()[test[k]];
    const std::span<const float> a = embeddings[p.a].data();
    const std::span<const float> b = embeddings[p.b].data();
    const float cell = core::cosine_cell(
        a.data(), b.data(), a.size(), core::row_norm(a) * core::row_norm(b));
    EXPECT_EQ(result.scores[k], cell) << "test pair " << k;
  }
}

}  // namespace
}  // namespace gnn4ip::train
