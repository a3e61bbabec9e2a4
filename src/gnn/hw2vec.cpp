#include "gnn/hw2vec.h"

#include "util/contract.h"

namespace gnn4ip::gnn {
namespace {

std::vector<GcnLayer> build_convs(const Hw2VecConfig& config,
                                  util::Rng& rng) {
  GNN4IP_ENSURE(config.num_layers >= 1, "hw2vec needs at least one GCN layer");
  std::vector<GcnLayer> convs;
  convs.reserve(config.num_layers);
  std::size_t in_dim = config.input_dim;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    convs.emplace_back(in_dim, config.hidden_dim, rng);
    in_dim = config.hidden_dim;
  }
  return convs;
}

}  // namespace

Hw2Vec::Hw2Vec(const Hw2VecConfig& config)
    : config_(config),
      init_rng_(config.seed),
      convs_(build_convs(config_, init_rng_)),
      pool_(config_.hidden_dim, config_.pool_ratio, init_rng_) {}

tensor::Var Hw2Vec::embed(tensor::Tape& tape, const GraphTensors& g,
                          util::Rng& dropout_rng, bool training) {
  GNN4IP_ENSURE(g.x.cols() == config_.input_dim,
                "graph feature width does not match model input_dim");
  tensor::Var x = tape.constant(g.x);
  // Message-propagation phase (Eq. 5), dropout after every GCN layer.
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    // Eq. 5's σ on every hidden layer but not the last: with ReLU there
    // the graph embedding is confined to the positive orthant, where
    // cosine similarity saturates near +1 and same/different pairs
    // cannot separate (embedding collapse).
    const bool last = l + 1 == convs_.size();
    x = convs_[l].forward(tape, g.adj, x, /*apply_relu=*/!last);
    x = tape.dropout(x, config_.dropout, dropout_rng, training);
  }
  // Attention-based top-k pooling, then the read-out phase (Eq. 3) over
  // the kept node rows.
  return apply_readout(tape, pool_.forward(tape, g, x).x, config_.readout);
}

tensor::Matrix Hw2Vec::embed_inference(const GraphTensors& g) {
  tensor::Tape tape;
  return embed_inference(tape, g);
}

tensor::Matrix Hw2Vec::embed_inference(tensor::Tape& tape,
                                       const GraphTensors& g) {
  tape.reset();
  util::Rng unused(0);
  tensor::Var h = embed(tape, g, unused, /*training=*/false);
  tensor::Matrix out = h.value();
  // Drop the node matrices now (keeping the vector's capacity): a
  // worker's thread-local tape would otherwise pin the last graph's
  // whole forward state while the pool sits idle.
  tape.reset();
  return out;
}

std::vector<tensor::Parameter*> Hw2Vec::parameters() {
  std::vector<tensor::Parameter*> params;
  for (GcnLayer& conv : convs_) {
    params.push_back(&conv.weight());
    params.push_back(&conv.bias());
  }
  params.push_back(&pool_.scorer().weight());
  params.push_back(&pool_.scorer().bias());
  return params;
}

}  // namespace gnn4ip::gnn
