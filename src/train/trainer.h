// Mini-batch trainer for GNN4IP.
//
// Each step samples `batch_graphs` training graphs and trains on every
// labeled training pair among them (held-out pairs are skipped), so
// each graph is embedded once per step however many pairs it is in. It
// minimizes the mean cosine-embedding loss (Eq. 7, margin 0.5) over
// those pairs and takes one Adam step. 20% of the pairs are held out
// (§IV-A); evaluate() tunes δ on the rest and scores the held-out ones.
//
// Training steps are data-parallel with bit-identical results: every
// batch graph runs forward + backward on its own tensor::Tape (reused
// across steps via reset()), parameter gradients accumulate into
// per-graph GradSink shadow buffers, the cross-graph cosine-embedding
// loss is differentiated in closed form on the coordinating thread and
// pushed back into each graph's tape as a backward seed, and the shadows
// are folded into the zeroed Parameter::grad in fixed graph-index order.
// The float summation order therefore never depends on the schedule, so
// fit() with 1, 2, or 8 workers produces byte-equal parameters and loss
// curves (asserted in tests/train_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "gnn/hw2vec.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/optimizer.h"
#include "util/thread_pool.h"

namespace gnn4ip::train {

/// Margin of the cosine-embedding loss for different-design pairs (Eq. 7).
inline constexpr float kMargin = 0.5F;

struct TrainConfig {
  int epochs = 40;
  std::size_t batch_graphs = 32;
  /// Cap on optimizer steps per epoch.
  std::size_t max_steps_per_epoch = 64;
  float learning_rate = 1e-3F;     // paper §IV
  std::uint64_t seed = 7;
  /// Worker threads for the training-step fan-out (per-graph
  /// forward/backward) and the embed_all fan-out (evaluation / scoring).
  /// 0 = the shared util::ThreadPool (GNN4IP_THREADS, else hardware
  /// concurrency). Gradients, trained weights, and embeddings are
  /// bit-identical for any value.
  std::size_t num_threads = 0;
};

struct EpochStats {
  double mean_loss = 0.0;
  std::size_t pairs_seen = 0;
  std::size_t steps = 0;
};

struct EvalResult {
  ConfusionMatrix confusion;
  float delta = 0.0F;              // decision boundary used
  std::vector<float> scores;       // per evaluated pair
  std::vector<int> labels;
  /// Wall-clock seconds per pair for embedding+similarity (no caching),
  /// matching the paper's per-sample timing protocol.
  double seconds_per_sample = 0.0;
};

class Trainer {
 public:
  Trainer(gnn::Hw2Vec& model, const PairDataset& dataset,
          const TrainConfig& config);

  /// One pass over (a sample of) the training graphs.
  EpochStats train_epoch();

  /// Run `epochs` epochs; returns the last epoch's stats.
  EpochStats fit();

  /// Tune δ on training pairs, evaluate on held-out pairs.
  [[nodiscard]] EvalResult evaluate();

  /// Embed every dataset graph once (inference mode), fanned out over
  /// the worker pool (TrainConfig::num_threads); returns row-matrix h_G
  /// per graph index, bit-identical for any worker count.
  [[nodiscard]] std::vector<tensor::Matrix> embed_all();

  [[nodiscard]] const PairDataset::Split& split() const { return split_; }

 private:
  /// One labeled pair of batch slots (indices into a step's graph list).
  struct SlotPair {
    std::size_t a = 0;
    std::size_t b = 0;
    int label = 0;
  };

  /// One data-parallel optimizer step over `graphs` (dataset graph
  /// indices; must be distinct) and the labeled `pairs` among them.
  /// Returns the mean pair loss. See the file comment for the
  /// determinism contract.
  double parallel_step(const std::vector<std::size_t>& graphs,
                       const std::vector<SlotPair>& pairs);

  /// The worker pool every trainer fan-out runs on: the shared pool for
  /// num_threads == 0, otherwise a trainer-owned pool spawned once —
  /// never a transient pool per step.
  util::ThreadPool& pool();

  gnn::Hw2Vec& model_;
  const PairDataset& dataset_;
  TrainConfig config_;
  PairDataset::Split split_;
  Adam optimizer_;
  util::Rng rng_;
  // Per-batch-slot tapes and gradient sinks, reused across steps and
  // epochs (reset()/clear() keep their allocations) so a step allocates
  // no tape or shadow storage after warm-up.
  std::vector<std::unique_ptr<tensor::Tape>> slot_tapes_;
  std::vector<tensor::GradSink> slot_sinks_;
  // Lazily-spawned pool for an explicit num_threads (see pool()).
  std::unique_ptr<util::ThreadPool> owned_pool_;
};

}  // namespace gnn4ip::train
