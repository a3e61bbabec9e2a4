#include "train/trainer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>

#include "core/cosine_kernels.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace gnn4ip::train {
namespace {

/// Share of the pairs held out for evaluation (§IV-A).
constexpr double kTestFraction = 0.2;

/// Norm-product floor shared with Tape::cosine_similarity, so the
/// closed-form pair gradient in parallel_step differentiates exactly the
/// similarity the tape would have computed.
constexpr float kCosineEps = 1e-8F;

/// Cosine similarity of two embeddings (inference path, no tape):
/// core::cosine_cell, the cell every verdict is scored with, so δ is
/// tuned on the same bits it is later compared against.
float cosine(const tensor::Matrix& a, const tensor::Matrix& b) {
  const std::span<const float> x = a.data();
  const std::span<const float> y = b.data();
  return core::cosine_cell(x.data(), y.data(), x.size(),
                           core::row_norm(x) * core::row_norm(y));
}

}  // namespace

Trainer::Trainer(gnn::Hw2Vec& model, const PairDataset& dataset,
                 const TrainConfig& config)
    : model_(model),
      dataset_(dataset),
      config_(config),
      optimizer_(model.parameters(), config.learning_rate),
      rng_(config.seed) {
  split_ = dataset_.split(kTestFraction, rng_);
}

util::ThreadPool& Trainer::pool() {
  if (config_.num_threads == 0) return util::ThreadPool::shared();
  if (!owned_pool_) {
    owned_pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
  return *owned_pool_;
}

EpochStats Trainer::fit() {
  EpochStats last;
  for (int e = 0; e < config_.epochs; ++e) {
    last = train_epoch();
  }
  return last;
}

double Trainer::parallel_step(const std::vector<std::size_t>& graphs,
                              const std::vector<SlotPair>& pairs) {
  GNN4IP_ENSURE(!graphs.empty(), "parallel_step: empty graph batch");
  GNN4IP_ENSURE(!pairs.empty(), "parallel_step: no labeled pairs");
  const std::size_t slots = graphs.size();
  while (slot_tapes_.size() < slots) {
    slot_tapes_.push_back(std::make_unique<tensor::Tape>());
    slot_sinks_.emplace_back();
  }
  // Per-slot dropout streams are seeded sequentially in slot order, so
  // the RNG consumption — like everything else in the step — depends on
  // the batch alone, never on the worker schedule.
  std::vector<std::uint64_t> dropout_seeds(slots);
  for (std::size_t s = 0; s < slots; ++s) dropout_seeds[s] = rng_.next_u64();

  // Phase 1 (parallel): forward every graph on its own reset tape, with
  // parameter-leaf gradients redirected into the slot's shadow sink.
  std::vector<tensor::Var> h(slots);
  const auto forward_one = [&](std::size_t s) {
    tensor::Tape& tape = *slot_tapes_[s];
    tape.reset();
    slot_sinks_[s].clear();
    tape.set_grad_sink(&slot_sinks_[s]);
    util::Rng dropout_rng(dropout_seeds[s]);
    h[s] = model_.embed(tape, dataset_.graphs()[graphs[s]].tensors,
                        dropout_rng, /*training=*/true);
  };
  pool().parallel_for(slots, forward_one);

  // Phase 2 (sequential, fixed pair order): the cross-graph part of the
  // loss — cosine similarity + Eq. 7 — is differentiated in closed form
  // and accumulated into one backward seed dL/dh per slot. The cosine
  // arithmetic mirrors Tape::cosine_similarity exactly.
  const float inv_pairs = 1.0F / static_cast<float>(pairs.size());
  std::vector<tensor::Matrix> seeds(slots);
  std::vector<char> touched(slots, 0);
  double loss_sum = 0.0;
  for (const SlotPair& p : pairs) {
    GNN4IP_ENSURE(p.label == 1 || p.label == -1, "pair label must be ±1");
    const tensor::Matrix& ha = h[p.a].value();
    const tensor::Matrix& hb = h[p.b].value();
    const float ab = tensor::dot(ha, hb);
    const float na = ha.frobenius_norm();
    const float nb = hb.frobenius_norm();
    const float denom = std::max(na * nb, kCosineEps);
    const float sim = ab / denom;
    float loss = 0.0F;
    float dloss_dsim = 0.0F;
    if (p.label == 1) {
      loss = 1.0F - sim;
      dloss_dsim = -1.0F;
    } else {
      const float hinge = sim - kMargin;
      loss = hinge > 0.0F ? hinge : 0.0F;
      dloss_dsim = hinge > 0.0F ? 1.0F : 0.0F;
    }
    loss_sum += static_cast<double>(loss);
    // d(mean loss)/d sim for this pair; zero on the flat side of the
    // hinge, so those pairs contribute no seed at all.
    const float ds = inv_pairs * dloss_dsim;
    if (ds == 0.0F) continue;
    const float na2 = std::max(na * na, kCosineEps);
    const float nb2 = std::max(nb * nb, kCosineEps);
    for (const std::size_t s : {p.a, p.b}) {
      if (!touched[s]) {
        seeds[s] =
            tensor::Matrix(h[s].value().rows(), h[s].value().cols(), 0.0F);
        touched[s] = 1;
      }
    }
    // d sim / d a = b/denom − sim · a/na², and symmetrically for b.
    const auto ad = ha.data();
    const auto bd = hb.data();
    auto da = seeds[p.a].data();
    auto db = seeds[p.b].data();
    for (std::size_t i = 0; i < ad.size(); ++i) {
      da[i] += ds * (bd[i] / denom - sim * ad[i] / na2);
      db[i] += ds * (ad[i] / denom - sim * bd[i] / nb2);
    }
  }

  // Phase 3 (parallel): backward each touched tape from its seed — the
  // shadows fill independently. Phase 4 (sequential, slot order): fold
  // the shadows into the zeroed Parameter::grad; the fixed fold order is
  // what makes the reduced gradient bit-identical for any worker count.
  // The previous step's gradient stays in Parameter::grad until here
  // (the backward passes write only the shadows).
  const auto backward_one = [&](std::size_t s) {
    if (touched[s]) slot_tapes_[s]->backward(h[s], seeds[s]);
  };
  const auto fold_one = [&](std::size_t s) {
    slot_sinks_[s].add_into_params();
  };
  for (tensor::Parameter* p : model_.parameters()) p->zero_grad();
  util::parallel_map_reduce(slots, pool(), backward_one, fold_one);

  optimizer_.step();
  return loss_sum * static_cast<double>(inv_pairs);
}

EpochStats Trainer::train_epoch() {
  EpochStats stats;
  // Which graphs participate in training pairs?
  std::vector<std::size_t> train_graphs;
  {
    std::vector<bool> in_train(dataset_.graphs().size(), false);
    for (std::size_t pi : split_.train) {
      in_train[dataset_.pairs()[pi].a] = true;
      in_train[dataset_.pairs()[pi].b] = true;
    }
    for (std::size_t g = 0; g < in_train.size(); ++g) {
      if (in_train[g]) train_graphs.push_back(g);
    }
  }
  GNN4IP_ENSURE(!train_graphs.empty(), "no training graphs");

  // Fast membership test for training pairs (a step must not train on
  // held-out pairs).
  std::map<std::pair<std::size_t, std::size_t>, int> train_pair_label;
  for (std::size_t pi : split_.train) {
    const PairSample& p = dataset_.pairs()[pi];
    train_pair_label[{std::min(p.a, p.b), std::max(p.a, p.b)}] = p.label;
  }

  rng_.shuffle(train_graphs);
  const std::size_t batch =
      std::min(config_.batch_graphs, train_graphs.size());
  const std::size_t steps = std::min(
      config_.max_steps_per_epoch,
      std::max<std::size_t>(1, train_graphs.size() / std::max<std::size_t>(
                                                         1, batch)));
  double loss_sum = 0.0;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < steps; ++s) {
    // Next window of graphs (reshuffle on wrap). A wrap mid-window can
    // re-deal a graph already in the window; skip it so the slots stay
    // distinct (parallel_step's precondition). batch ≤ train_graphs
    // guarantees an unchosen graph always remains.
    std::vector<std::size_t> chosen;
    chosen.reserve(batch);
    while (chosen.size() < batch) {
      if (cursor >= train_graphs.size()) {
        rng_.shuffle(train_graphs);
        cursor = 0;
      }
      const std::size_t g = train_graphs[cursor++];
      if (std::find(chosen.begin(), chosen.end(), g) == chosen.end()) {
        chosen.push_back(g);
      }
    }

    // Labeled training pairs among the chosen window (held-out pairs are
    // skipped); slots index into `chosen`.
    std::vector<SlotPair> pairs;
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      for (std::size_t j = i + 1; j < chosen.size(); ++j) {
        const auto key = std::minmax(chosen[i], chosen[j]);
        const auto it = train_pair_label.find({key.first, key.second});
        if (it == train_pair_label.end()) continue;  // held-out pair
        pairs.push_back({i, j, it->second});
      }
    }
    if (pairs.empty()) continue;
    loss_sum += parallel_step(chosen, pairs);
    stats.pairs_seen += pairs.size();
    ++stats.steps;
  }
  stats.mean_loss = stats.steps == 0 ? 0.0 : loss_sum / stats.steps;
  return stats;
}

std::vector<tensor::Matrix> Trainer::embed_all() {
  // Graphs are independent; each worker fills only its own slot with
  // the const, tape-free inference forward, so the result is
  // bit-identical for any worker count.
  std::vector<tensor::Matrix> embeddings(dataset_.graphs().size());
  const auto embed_one = [&](std::size_t g) {
    embeddings[g] = model_.embed_inference(dataset_.graphs()[g].tensors);
  };
  pool().parallel_for(embeddings.size(), embed_one);
  return embeddings;
}

EvalResult Trainer::evaluate() {
  const std::vector<tensor::Matrix> embeddings = embed_all();
  auto score_of = [&](std::size_t pi) {
    const PairSample& p = dataset_.pairs()[pi];
    return cosine(embeddings[p.a], embeddings[p.b]);
  };

  // δ tuned on training pairs only.
  std::vector<float> train_scores;
  std::vector<int> train_labels;
  train_scores.reserve(split_.train.size());
  for (std::size_t pi : split_.train) {
    train_scores.push_back(score_of(pi));
    train_labels.push_back(dataset_.pairs()[pi].label);
  }
  EvalResult result;
  result.delta = tune_threshold(train_scores, train_labels);
  result.scores.reserve(split_.test.size());
  result.labels.reserve(split_.test.size());
  for (std::size_t pi : split_.test) {
    result.scores.push_back(score_of(pi));
    result.labels.push_back(dataset_.pairs()[pi].label);
  }
  result.confusion =
      confusion_at(result.scores, result.labels, result.delta);

  // Per-sample timing without embedding reuse: embed both graphs of a
  // pair and compute the similarity, averaged over up to 64 test pairs.
  const std::size_t timing_pairs =
      std::min<std::size_t>(64, split_.test.size());
  if (timing_pairs == 0) return result;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < timing_pairs; ++k) {
    const PairSample& p = dataset_.pairs()[split_.test[k]];
    const tensor::Matrix ha =
        model_.embed_inference(dataset_.graphs()[p.a].tensors);
    const tensor::Matrix hb =
        model_.embed_inference(dataset_.graphs()[p.b].tensors);
    volatile float sink = cosine(ha, hb);
    (void)sink;
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.seconds_per_sample =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(timing_pairs);
  return result;
}

}  // namespace gnn4ip::train
