// GNN layer tests: featurization, GCN propagation, SAGPool, readout,
// hw2vec end-to-end, and model serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "data/iscas.h"
#include "dfg/node_kind.h"
#include "dfg/pipeline.h"
#include "gnn/featurize.h"
#include "gnn/gcn_layer.h"
#include "gnn/hw2vec.h"
#include "gnn/model_io.h"
#include "gnn/readout.h"
#include "gnn/sag_pool.h"
#include "golden_corpus.h"
#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::gnn {
namespace {

graph::Digraph tiny_graph() {
  graph::Digraph g;
  g.add_node("out", static_cast<int>(dfg::NodeKind::kOutput));
  g.add_node("op", static_cast<int>(dfg::NodeKind::kXor));
  g.add_node("a", static_cast<int>(dfg::NodeKind::kInput));
  g.add_node("b", static_cast<int>(dfg::NodeKind::kInput));
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  return g;
}

TEST(Featurize, OneHotRows) {
  const GraphTensors t = featurize(tiny_graph());
  ASSERT_EQ(t.x.rows(), 4u);
  ASSERT_EQ(t.x.cols(), static_cast<std::size_t>(dfg::kNodeKindCount));
  // Each row sums to exactly 1.
  for (std::size_t r = 0; r < t.x.rows(); ++r) {
    float sum = 0.0F;
    for (float v : t.x.row(r)) sum += v;
    EXPECT_FLOAT_EQ(sum, 1.0F);
  }
  EXPECT_FLOAT_EQ(t.x.at(0, static_cast<std::size_t>(dfg::NodeKind::kOutput)),
                  1.0F);
}

TEST(Featurize, NormalizedAdjacencyRowsAreFinite) {
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix dense = t.adj->to_dense();
  for (float v : dense.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0F);
    EXPECT_LE(v, 1.0F);
  }
  // Self-loops present: diagonal strictly positive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(dense.at(i, i), 0.0F);
  }
}

TEST(Featurize, EdgesPropagateBothWays) {
  const tensor::Matrix dense = featurize(tiny_graph()).adj->to_dense();
  // Only edge 1->2 exists; Â holds it and its reverse.
  EXPECT_GT(dense.at(1, 2), 0.0F);
  EXPECT_GT(dense.at(2, 1), 0.0F);
}

TEST(Featurize, NormalizationMatchesEq5ByHand) {
  // Two nodes, one edge, symmetric: Â = [[1,1],[1,1]], D̂ = diag(2,2)
  // -> normalized entries all 1/2.
  graph::Digraph g;
  g.add_node("a", 0);
  g.add_node("b", 1);
  g.add_edge(0, 1);
  const GraphTensors t = featurize(g);
  const tensor::Matrix dense = t.adj->to_dense();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(dense.at(i, j), 0.5F, 1e-6F);
    }
  }
}

// Â is symmetric, and each value inv_sqrt[r] · inv_sqrt[c] commutes, so
// training's Âᵀ·dY equals Â·dY bit for bit on a real netlist.
TEST(Featurize, TransposedProductBitEqualsProduct) {
  const std::vector<data::IscasBenchmark> benches = data::iscas_benchmarks();
  const GraphTensors t =
      featurize(dfg::extract_dfg(benches.front().netlist.to_verilog()));
  util::Rng rng(5);
  tensor::Matrix x(t.num_nodes, 16);
  for (float& v : x.data()) v = rng.uniform(-1, 1);
  const tensor::Matrix product = t.adj->multiply(x);
  const tensor::Matrix transposed = t.adj->multiply_transposed(x);
  ASSERT_EQ(product.data().size(), transposed.data().size());
  for (std::size_t i = 0; i < product.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(product.data()[i]),
              std::bit_cast<std::uint32_t>(transposed.data()[i]))
        << "element " << i;
  }
}

TEST(Featurize, EmptyGraphRejected) {
  graph::Digraph g;
  EXPECT_THROW(featurize(g), util::ContractViolation);
}

TEST(GcnLayer, OutputShapeAndRelu) {
  util::Rng rng(1);
  GcnLayer layer(static_cast<std::size_t>(dfg::kNodeKindCount), 8, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var y = layer.forward(tape, t.adj, x);
  EXPECT_EQ(y.value().rows(), 4u);
  EXPECT_EQ(y.value().cols(), 8u);
  for (float v : y.value().data()) EXPECT_GE(v, 0.0F);  // ReLU
}

TEST(GcnLayer, PropagationMixesNeighborFeatures) {
  // With identity-ish weights, a node's output depends on neighbors.
  util::Rng rng(2);
  GcnLayer layer(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var y1 = layer.forward(tape, t.adj, x, /*apply_relu=*/false);

  // Zero out the op-node's neighbors' features: output at op changes.
  tensor::Matrix x2 = t.x;
  for (std::size_t c = 0; c < x2.cols(); ++c) {
    x2.at(2, c) = 0.0F;
    x2.at(3, c) = 0.0F;
  }
  tensor::Var vx2 = tape.constant(x2);
  tensor::Var y2 = layer.forward(tape, t.adj, vx2, false);
  float diff = 0.0F;
  for (std::size_t c = 0; c < 4; ++c) {
    diff += std::fabs(y1.value().at(1, c) - y2.value().at(1, c));
  }
  EXPECT_GT(diff, 1e-6F);
}

TEST(SagPool, KeepsCeilRatioNodes) {
  util::Rng rng(3);
  SagPool pool(4, 0.5F, rng);
  GcnLayer embed(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var h = embed.forward(tape, t.adj, x);
  const SagPool::Result r = pool.forward(tape, t, h);
  EXPECT_EQ(r.kept.size(), 2u);  // ceil(0.5 * 4)
  EXPECT_EQ(r.x.value().rows(), 2u);
}

TEST(SagPool, RatioOneKeepsAll) {
  util::Rng rng(4);
  SagPool pool(4, 1.0F, rng);
  GcnLayer embed(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var h = embed.forward(tape, t.adj, x);
  const SagPool::Result r = pool.forward(tape, t, h);
  EXPECT_EQ(r.kept.size(), 4u);
}

TEST(SagPool, TiesKeepLowestIndices) {
  // 64 isolated nodes of one kind score exactly alike; top-k must keep
  // the lowest indices, as a stable sort by score would.
  graph::Digraph g;
  for (int i = 0; i < 64; ++i) {
    g.add_node("n" + std::to_string(i),
               static_cast<int>(dfg::NodeKind::kInput));
  }
  const GraphTensors t = featurize(g);
  util::Rng rng(9);
  SagPool pool(static_cast<std::size_t>(dfg::kNodeKindCount), 0.5F, rng);
  tensor::Tape tape;
  const SagPool::Result r = pool.forward(tape, t, tape.constant(t.x));
  std::vector<std::size_t> want(32);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(r.kept, want);
}

TEST(SagPool, InvalidRatioRejected) {
  util::Rng rng(6);
  EXPECT_THROW(SagPool(4, 0.0F, rng), util::ContractViolation);
  EXPECT_THROW(SagPool(4, 1.5F, rng), util::ContractViolation);
}

TEST(Readout, StringRoundTrip) {
  EXPECT_EQ(readout_from_string("max"), Readout::kMax);
  EXPECT_EQ(readout_from_string("mean"), Readout::kMean);
  EXPECT_EQ(readout_from_string("sum"), Readout::kSum);
  EXPECT_STREQ(to_string(Readout::kMax), "max");
  EXPECT_THROW((void)readout_from_string("median"), std::invalid_argument);
}

TEST(Readout, AppliesSelectedOperation) {
  tensor::Tape tape;
  tensor::Var x =
      tape.constant(tensor::Matrix::from_rows({{1, 4}, {3, 2}}));
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kSum).value().at(0, 0),
                  4.0F);
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kMean).value().at(0, 1),
                  3.0F);
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kMax).value().at(0, 0),
                  3.0F);
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kMax).value().at(0, 1),
                  4.0F);
}

TEST(Hw2Vec, EmbeddingShapeMatchesHidden) {
  Hw2VecConfig config;
  config.hidden_dim = 16;
  Hw2Vec model(config);
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix h = model.embed_inference(t);
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 16u);
}

TEST(Hw2Vec, DeterministicInference) {
  Hw2Vec model;
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix h1 = model.embed_inference(t);
  const tensor::Matrix h2 = model.embed_inference(t);
  EXPECT_LT(tensor::max_abs_diff(h1, h2), 1e-7F);
}

TEST(Hw2Vec, SeedChangesWeights) {
  Hw2VecConfig c1;
  c1.seed = 1;
  Hw2VecConfig c2;
  c2.seed = 2;
  Hw2Vec m1(c1);
  Hw2Vec m2(c2);
  const GraphTensors t = featurize(tiny_graph());
  EXPECT_GT(tensor::max_abs_diff(m1.embed_inference(t),
                                 m2.embed_inference(t)),
            1e-6F);
}

TEST(Hw2Vec, ParameterCount) {
  Hw2VecConfig config;
  config.num_layers = 2;
  Hw2Vec model(config);
  // 2 convs × (W, b) + scorer (W, b) = 6 parameters.
  EXPECT_EQ(model.parameters().size(), 6u);
}

TEST(Hw2Vec, GradientsFlowToAllParameters) {
  Hw2Vec model;
  const GraphTensors t = featurize(tiny_graph());
  util::Rng rng(7);
  tensor::Tape tape;
  tensor::Var h = model.embed(tape, t, rng, /*training=*/false);
  tensor::Var target =
      tape.constant(tensor::Matrix::ones(1, h.value().cols()));
  tensor::Var sim = tape.cosine_similarity(h, target);
  tensor::Var loss = tape.cosine_embedding_loss(sim, 1, 0.5F);
  tape.backward(loss);
  int with_grad = 0;
  for (tensor::Parameter* p : model.parameters()) {
    if (p->grad.max_abs() > 0.0F) ++with_grad;
  }
  // At minimum both conv weights and the scorer weight receive gradient.
  EXPECT_GE(with_grad, 3);
}

TEST(Hw2Vec, RealDfgEndToEnd) {
  const graph::Digraph g = dfg::extract_dfg(
      "module m (input [3:0] a, input [3:0] b, output [3:0] y);\n"
      "  assign y = (a & b) | (a ^ b);\n"
      "endmodule\n");
  Hw2Vec model;
  const tensor::Matrix h = model.embed_inference(featurize(g));
  EXPECT_EQ(h.cols(), 16u);
  for (float v : h.data()) EXPECT_TRUE(std::isfinite(v));
}

bool bits_equal(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// The reference: the training forward on a fresh tape, without dropout.
tensor::Matrix tape_embedding(Hw2Vec& model, const GraphTensors& t) {
  tensor::Tape tape;
  util::Rng unused(0);
  return model.embed(tape, t, unused, /*training=*/false).value();
}

TEST(Hw2Vec, InferenceForwardBitEqualsTapeForward) {
  // embed_inference runs off the tape; every golden-corpus design must
  // embed to the tape forward's exact bits under every model-file
  // config: each readout, depth and pooling ratio, and widths 16 and 12
  // (12 leaves a 4-column tail in every 8-column tile). Biases are
  // drawn nonzero so the bias step is exercised.
  std::vector<std::pair<std::string, GraphTensors>> graphs;
  for (const auto& [label, source] : golden::designs()) {
    graphs.emplace_back(label, featurize(dfg::extract_dfg(source)));
  }
  for (const Readout readout : {Readout::kMax, Readout::kMean, Readout::kSum}) {
    for (const std::size_t layers : {1, 2, 3}) {
      for (const float ratio : {0.5F, 0.3F, 1.0F}) {
        for (const std::size_t hidden : {16, 12}) {
          Hw2VecConfig config;
          config.readout = readout;
          config.num_layers = layers;
          config.pool_ratio = ratio;
          config.hidden_dim = hidden;
          Hw2Vec model(config);
          const std::vector<tensor::Parameter*> params = model.parameters();
          util::Rng bias_rng(layers * 100 + hidden);
          for (std::size_t p = 1; p < params.size(); p += 2) {  // W, b pairs
            for (float& b : params[p]->value.data()) {
              b = bias_rng.uniform(-0.5F, 0.5F);
            }
          }
          const std::string where = std::string(to_string(readout)) +
                                    " layers " + std::to_string(layers) +
                                    " ratio " + std::to_string(ratio) +
                                    " hidden " + std::to_string(hidden);
          for (const auto& [label, t] : graphs) {
            const tensor::Matrix want = tape_embedding(model, t);
            ASSERT_TRUE(bits_equal(model.embed_inference(t), want))
                << label << ", " << where;
            tensor::Tape unused;
            ASSERT_TRUE(bits_equal(model.embed_inference(unused, t), want))
                << label << ", " << where;
            ASSERT_EQ(unused.num_nodes(), 0u) << "the Tape& overload ran";
          }
        }
      }
    }
  }
}

TEST(Hw2Vec, InferenceForwardKeepsLowestIndicesOnTiedScores) {
  // A zero scorer weight makes α = b_s on every node, so all scores tie
  // and the lowest-index rule alone picks the kept rows. The nodes
  // differ in kind, so which rows survive changes the embedding: listed
  // in reverse, the same graph keeps the other half.
  const std::vector<dfg::NodeKind> kinds = {
      dfg::NodeKind::kOutput, dfg::NodeKind::kXor, dfg::NodeKind::kAnd,
      dfg::NodeKind::kMux,    dfg::NodeKind::kAdd, dfg::NodeKind::kInput};
  const auto chain = [&kinds](bool reversed) {
    graph::Digraph g;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const dfg::NodeKind kind = kinds[reversed ? kinds.size() - 1 - i : i];
      g.add_node("n" + std::to_string(i), static_cast<int>(kind));
    }
    for (std::size_t i = 0; i + 1 < kinds.size(); ++i) {
      g.add_edge(static_cast<graph::NodeId>(i),
                 static_cast<graph::NodeId>(i + 1));
    }
    return featurize(g);
  };
  const GraphTensors forward = chain(false);
  const GraphTensors backward = chain(true);
  for (const Readout readout : {Readout::kMax, Readout::kMean, Readout::kSum}) {
    Hw2VecConfig config;
    config.readout = readout;
    Hw2Vec model(config);
    const std::vector<tensor::Parameter*> params = model.parameters();
    params[params.size() - 2]->value.fill(0.0F);  // scorer weight
    params.back()->value.fill(0.25F);             // b_s, so tanh(α) ≠ 0
    const tensor::Matrix h = model.embed_inference(forward);
    EXPECT_TRUE(bits_equal(h, tape_embedding(model, forward)))
        << to_string(readout);
    EXPECT_TRUE(bits_equal(model.embed_inference(backward),
                           tape_embedding(model, backward)))
        << to_string(readout);
    EXPECT_FALSE(bits_equal(h, model.embed_inference(backward)))
        << to_string(readout);
  }
  util::Rng rng(5);
  const SagPool pool(4, 0.5F, rng);
  EXPECT_EQ(pool.top_k(tensor::Matrix(6, 1, 0.25F)),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ModelIo, SaveLoadRoundTrip) {
  Hw2VecConfig config;
  config.seed = 42;
  config.readout = Readout::kMean;
  config.pool_ratio = 0.25F;
  Hw2Vec model(config);
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix before = model.embed_inference(t);

  std::stringstream buffer;
  buffer.precision(9);
  save_model(buffer, model);
  Hw2Vec loaded = load_model(buffer);
  EXPECT_EQ(loaded.config().readout, Readout::kMean);
  EXPECT_FLOAT_EQ(loaded.config().pool_ratio, 0.25F);
  const tensor::Matrix after = loaded.embed_inference(t);
  EXPECT_LT(tensor::max_abs_diff(before, after), 1e-5F);
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream buffer("definitely not a model");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

}  // namespace
}  // namespace gnn4ip::gnn
