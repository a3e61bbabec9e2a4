// GNN4IP public facade — the one header downstream users include.
//
// Implements Algorithm 1 of the paper end to end:
//   hw2vec(p):  DFG extraction → GCN propagation → top-k pooling →
//               readout → graph embedding h_G
//   gnn4ip(p1, p2):  cosine similarity of the two embeddings, thresholded
//                    against the decision boundary δ.
//
// Typical use:
//   gnn4ip::PiracyDetector detector;                 // paper hyperparams
//   detector.train_on(graph_entries, train_config);  // or load a model
//   auto verdict = detector.check(verilog_a, verilog_b);
//   if (verdict.is_piracy) ...
#pragma once

#include <string>
#include <vector>

#include "data/corpus.h"
#include "dfg/pipeline.h"
#include "gnn/featurize.h"
#include "gnn/hw2vec.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace gnn4ip {

/// Convert one corpus item (Verilog text + labels) into a featurized
/// dataset entry. Throws verilog::ParseError on malformed sources.
[[nodiscard]] train::GraphEntry make_graph_entry(const data::CorpusItem& item);

[[nodiscard]] std::vector<train::GraphEntry> make_graph_entries(
    const std::vector<data::CorpusItem>& items);

struct DetectorConfig {
  gnn::Hw2VecConfig model;         // paper §IV defaults
  float delta = 0.5F;              // decision boundary δ
};

/// Pair verdict (Alg. 1 output plus the raw score Ŷ).
struct Verdict {
  float similarity = 0.0F;  // Ŷ ∈ [−1, 1]
  bool is_piracy = false;   // Ŷ > δ
};

class PiracyDetector {
 public:
  explicit PiracyDetector(const DetectorConfig& config = {});

  /// Train hw2vec on labeled graph entries, over pairs built at the
  /// paper's ~3.49:1 different:similar ratio (§IV-A); returns the
  /// held-out evaluation (δ is re-tuned on the training split).
  train::EvalResult train_on(std::vector<train::GraphEntry> entries,
                             const train::TrainConfig& train_config = {});

  /// Embed a Verilog source (RTL or netlist).
  [[nodiscard]] tensor::Matrix embed(const std::string& verilog_source);
  [[nodiscard]] tensor::Matrix embed(const train::GraphEntry& entry);

  /// Similarity score Ŷ for two sources (Eq. 6).
  [[nodiscard]] float similarity(const std::string& verilog_a,
                                 const std::string& verilog_b);

  /// Full Alg. 1 check.
  [[nodiscard]] Verdict check(const std::string& verilog_a,
                              const std::string& verilog_b);

  [[nodiscard]] float delta() const { return config_.delta; }
  void set_delta(float delta) { config_.delta = delta; }

  [[nodiscard]] gnn::Hw2Vec& model() { return model_; }
  [[nodiscard]] const DetectorConfig& config() const { return config_; }

  /// Weight persistence (see gnn/model_io.h for the format).
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  DetectorConfig config_;
  gnn::Hw2Vec model_;
};

}  // namespace gnn4ip
