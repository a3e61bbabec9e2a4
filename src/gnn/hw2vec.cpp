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
      pool_(config_.hidden_dim, config_.pool_ratio, init_rng_) {
  GNN4IP_ENSURE(config_.dropout >= 0.0F && config_.dropout < 1.0F,
                "dropout rate must be in [0,1)");
}

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

tensor::Matrix Hw2Vec::embed_inference(const GraphTensors& g) const {
  // The tape forward's checks: feature width, equal node counts, and a
  // non-empty graph.
  GNN4IP_ENSURE(g.x.cols() == config_.input_dim,
                "graph feature width does not match model input_dim");
  const std::size_t n = g.x.rows();
  GNN4IP_ENSURE(n > 0, "SagPool on empty graph");
  GNN4IP_ENSURE(g.adj != nullptr && n == g.num_nodes &&
                    g.adj->rows() == n && g.adj->cols() == n,
                "node features, node count and adjacency disagree");
  // Each layer writes T = X·W into `t` and Y = Â·T + b into `h`, which
  // the next layer reads as X. Dropout is the identity at inference.
  tensor::Matrix t(n, config_.hidden_dim);
  tensor::Matrix h(n, config_.hidden_dim);
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    convs_[l].forward(*g.adj, l == 0 ? g.x : h, t, h,
                      /*apply_relu=*/l + 1 < convs_.size());
  }
  // α from the scorer's one channel; top-k, gate and readout as SagPool
  // and apply_readout do on the tape.
  tensor::Matrix alpha_t(n, 1);
  tensor::Matrix alpha(n, 1);
  pool_.scorer().forward(*g.adj, h, alpha_t, alpha, /*apply_relu=*/false);
  return gated_readout(h, alpha, pool_.top_k(alpha), config_.readout);
}

tensor::Matrix Hw2Vec::embed_inference(tensor::Tape& /*tape*/,
                                       const GraphTensors& g) const {
  return embed_inference(g);
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
