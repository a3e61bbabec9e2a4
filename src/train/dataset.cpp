#include "train/dataset.h"

#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::train {
namespace {

/// Seed of the negative subsampling shuffle.
constexpr std::uint64_t kSubsampleSeed = 97;

}  // namespace

PairDataset PairDataset::all_pairs(std::vector<GraphEntry> graphs,
                                   double max_negative_ratio) {
  PairDataset ds;
  ds.graphs_ = std::move(graphs);
  const std::size_t n = ds.graphs_.size();
  std::vector<PairSample> negatives;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      PairSample p;
      p.a = i;
      p.b = j;
      p.label = ds.graphs_[i].design == ds.graphs_[j].design ? 1 : -1;
      if (p.label == 1) {
        ++ds.num_similar_;
        ds.pairs_.push_back(p);
      } else {
        negatives.push_back(p);
      }
    }
  }
  if (max_negative_ratio > 0.0) {
    const auto cap = static_cast<std::size_t>(
        max_negative_ratio * static_cast<double>(ds.num_similar_));
    if (negatives.size() > cap && cap > 0) {
      util::Rng rng(kSubsampleSeed);
      rng.shuffle(negatives);
      negatives.resize(cap);
    }
  }
  ds.num_different_ = negatives.size();
  ds.pairs_.insert(ds.pairs_.end(), negatives.begin(), negatives.end());
  return ds;
}

PairDataset::Split PairDataset::split(double test_fraction,
                                      util::Rng& rng) const {
  GNN4IP_ENSURE(test_fraction >= 0.0 && test_fraction < 1.0,
                "test_fraction must be in [0, 1)");
  std::vector<std::size_t> similar;
  std::vector<std::size_t> different;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    (pairs_[i].label == 1 ? similar : different).push_back(i);
  }
  rng.shuffle(similar);
  rng.shuffle(different);
  Split split;
  auto take = [&](std::vector<std::size_t>& pool) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(pool.size()) * test_fraction);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (i < cut ? split.test : split.train).push_back(pool[i]);
    }
  };
  take(similar);
  take(different);
  rng.shuffle(split.train);
  rng.shuffle(split.test);
  return split;
}

}  // namespace gnn4ip::train
