// Pair dataset for piracy detection.
//
// The corpus is a set of hardware instances, each belonging to a design
// family; a pair is labeled +1 (piracy) when both instances derive from
// the same design and −1 (no piracy) otherwise — exactly the labeling
// behind the paper's 19094 similar / 66631 different pairs. A stratified
// split holds out a fraction of pairs for testing.
#pragma once

#include <string>
#include <vector>

#include "gnn/featurize.h"
#include "util/rng.h"

namespace gnn4ip::train {

/// The paper's different:similar pair ratio (66631 / 19094 ≈ 3.49,
/// §IV-A): the cap every production trainer passes to all_pairs.
inline constexpr double kPaperNegativeRatio = 3.49;

/// One hardware instance with its featurized DFG.
struct GraphEntry {
  std::string name;    // instance identifier, e.g. "pipeline_mips#3"
  std::string design;  // design-family key; equal keys => piracy pair
  gnn::GraphTensors tensors;
};

/// Index pair + ±1 label.
struct PairSample {
  std::size_t a = 0;
  std::size_t b = 0;
  int label = 0;  // +1 piracy, -1 no piracy
};

class PairDataset {
 public:
  PairDataset() = default;

  /// Form all unordered pairs over `graphs`. A positive
  /// `max_negative_ratio` caps the different-design pairs at that many
  /// per similar pair, keeping a fixed-seed random subset. The paper's
  /// corpus has 66631 different vs 19094 similar pairs (ratio ≈ 3.49); an
  /// all-pairs set over few families is far more imbalanced, which
  /// starves recall. 0 keeps every pair.
  [[nodiscard]] static PairDataset all_pairs(std::vector<GraphEntry> graphs,
                                             double max_negative_ratio = 0.0);

  [[nodiscard]] const std::vector<GraphEntry>& graphs() const {
    return graphs_;
  }
  [[nodiscard]] const std::vector<PairSample>& pairs() const { return pairs_; }

  [[nodiscard]] std::size_t num_similar() const { return num_similar_; }
  [[nodiscard]] std::size_t num_different() const { return num_different_; }

  /// Shuffled, stratified train/test split of pair indices: the similar /
  /// different ratio is preserved in both sides.
  struct Split {
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
  };
  [[nodiscard]] Split split(double test_fraction, util::Rng& rng) const;

 private:
  std::vector<GraphEntry> graphs_;
  std::vector<PairSample> pairs_;
  std::size_t num_similar_ = 0;
  std::size_t num_different_ = 0;
};

}  // namespace gnn4ip::train
