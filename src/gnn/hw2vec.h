// hw2vec: the graph-embedding network of GNN4IP (paper Fig. 3, Alg. 1
// lines 3–8): stacked GCN layers → self-attention top-k pooling → readout.
//
// The same weights embed both members of a circuit pair; similarity is
// the cosine of the two embeddings (Eq. 6).
#pragma once

#include <memory>
#include <vector>

#include "dfg/node_kind.h"
#include "gnn/featurize.h"
#include "gnn/gcn_layer.h"
#include "gnn/readout.h"
#include "gnn/sag_pool.h"
#include "tensor/tape.h"
#include "util/rng.h"

namespace gnn4ip::gnn {

struct Hw2VecConfig {
  std::size_t input_dim = static_cast<std::size_t>(dfg::kNodeKindCount);
  std::size_t hidden_dim = 16;   // paper §IV: 16 hidden units
  std::size_t num_layers = 2;    // paper §IV: 2 GCN layers
  float pool_ratio = 0.5F;       // paper §IV: top-k ratio 0.5
  Readout readout = Readout::kMax;  // paper §IV: max-pooling readout
  float dropout = 0.1F;          // paper §IV: dropout 0.1 after each GCN
  std::uint64_t seed = 1;        // weight-init seed
};

class Hw2Vec {
 public:
  explicit Hw2Vec(const Hw2VecConfig& config = {});

  /// Embed a featurized graph on a caller-provided tape (training path:
  /// gradients flow into the model parameters). With `training` false
  /// this is the reference forward embed_inference is pinned to.
  [[nodiscard]] tensor::Var embed(tensor::Tape& tape, const GraphTensors& g,
                                  util::Rng& dropout_rng, bool training);

  /// Inference: h_G (1×hidden_dim) without dropout, off the tape. The
  /// forward holds two N×hidden_dim buffers and two N×1 score columns
  /// per call and records nothing for a backward pass; it is const and
  /// safe to call from any number of threads at once. Every float
  /// operation runs in the tape forward's order, so the embedding is
  /// bit-equal to embed(tape, g, rng, false).value().
  [[nodiscard]] tensor::Matrix embed_inference(const GraphTensors& g) const;

  /// The same forward; the tape is not touched. Kept for callers that
  /// still pass one (perfbench's front-end replay).
  [[nodiscard]] tensor::Matrix embed_inference(tensor::Tape& tape,
                                               const GraphTensors& g) const;

  /// All trainable parameters (for the optimizer / serialization).
  [[nodiscard]] std::vector<tensor::Parameter*> parameters();

  [[nodiscard]] const Hw2VecConfig& config() const { return config_; }
  /// Width D of the graph embedding h_G (the readout output).
  [[nodiscard]] std::size_t embedding_dim() const {
    return config_.hidden_dim;
  }

 private:
  Hw2VecConfig config_;
  util::Rng init_rng_;  // declared before the layers that consume it
  std::vector<GcnLayer> convs_;
  SagPool pool_;
};

}  // namespace gnn4ip::gnn
