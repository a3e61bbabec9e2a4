// Scoring tests: the EmbeddingStore rows and cached norms every sweep
// reads, the per-cell kernel, and core::screen_shard / core::top_k_shard
// — the one exact sweep behind both ShardedCorpus and dist::ShardServer
// — against brute force and the per-pair embed-and-cosine path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/gnn4ip.h"
#include "core/shard_sweep.h"
#include "data/corpus.h"
#include "train/trainer.h"
#include "util/contract.h"

namespace gnn4ip::core {
namespace {

/// The per-pair scoring path (PiracyDetector::similarity): embed both
/// members, clamped cosine.
float per_pair_cosine(gnn::Hw2Vec& model, const train::GraphEntry& a,
                      const train::GraphEntry& b) {
  const tensor::Matrix ha = model.embed_inference(a.tensors);
  const tensor::Matrix hb = model.embed_inference(b.tensors);
  const float denom = std::max(
      ha.frobenius_norm() * hb.frobenius_norm(), 1e-8F);
  return std::clamp(tensor::dot(ha, hb) / denom, -1.0F, 1.0F);
}

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

EmbeddingStore embedded_store(gnn::Hw2Vec& model,
                              const std::vector<train::GraphEntry>& entries) {
  EmbeddingStore store;
  for (const train::GraphEntry& entry : entries) {
    (void)store.add(entry.name, model.embed_inference(entry.tensors));
  }
  return store;
}

/// cosine_cell of two stored rows over their cached norms.
float cell(const EmbeddingStore& store, std::size_t a, std::size_t b) {
  return cosine_cell(store.row(a).data(), store.row(b).data(), store.dim(),
                     store.norm(a) * store.norm(b));
}

TEST(EmbeddingStore, AddNameRowAndDimAccounting) {
  EmbeddingStore store;
  EXPECT_TRUE(store.empty());
  const tensor::Matrix a = tensor::Matrix::from_rows({{1, 2, 3}});
  const tensor::Matrix b = tensor::Matrix::from_rows({{4, 5, 6}});
  EXPECT_EQ(store.add("a", a), 0u);
  EXPECT_EQ(store.add("b", b), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dim(), 3u);
  EXPECT_EQ(store.name(0), "a");
  EXPECT_EQ(store.name(1), "b");
  EXPECT_EQ(store.row(1)[0], 4.0F);
  EXPECT_EQ(store.row(1).size(), 3u);
  EXPECT_THROW((void)store.row(2), util::ContractViolation);
  // Dim is fixed by the first add.
  const tensor::Matrix wide = tensor::Matrix::from_rows({{1, 2, 3, 4}});
  EXPECT_THROW((void)store.add("wide", wide), util::ContractViolation);
  EXPECT_THROW((void)store.add("empty", tensor::Matrix()),
               util::ContractViolation);
}

TEST(EmbeddingStore, RemoveCompactRemapsAndPreservesSurvivors) {
  EmbeddingStore store;
  (void)store.add("a", tensor::Matrix::from_rows({{1, 0}}));
  (void)store.add("b", tensor::Matrix::from_rows({{2, 0}}));
  (void)store.add("c", tensor::Matrix::from_rows({{3, 0}}));
  store.remove(1);
  EXPECT_FALSE(store.live(1));
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_THROW(store.remove(1), util::ContractViolation);  // already gone

  const std::vector<std::size_t> mapping = store.compact();
  ASSERT_EQ(mapping.size(), 3u);
  EXPECT_EQ(mapping[0], 0u);
  EXPECT_EQ(mapping[1], EmbeddingStore::kNoIndex);
  EXPECT_EQ(mapping[2], 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.name(1), "c");
  EXPECT_EQ(store.row(1)[0], 3.0F);
  EXPECT_EQ(store.norm(1), 3.0F);
  // Idempotent when nothing is tombstoned: identity mapping.
  const std::vector<std::size_t> identity = store.compact();
  EXPECT_EQ(identity, (std::vector<std::size_t>{0, 1}));
}

TEST(EmbeddingStore, CachedNormsMatchKernelRecomputationBitForBit) {
  // The store caches fl(row_norm) at add time and keeps it through
  // compact(); every sweep divides by these cached values, so they must
  // be indistinguishable from recomputation.
  gnn::Hw2Vec model;
  EmbeddingStore store = embedded_store(model, small_corpus());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.norm(i), row_norm(store.row(i))) << "row " << i;
  }
  store.remove(1);
  (void)store.compact();
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.norm(i), row_norm(store.row(i))) << "row " << i;
  }
}

TEST(CosineCell, MatchesHandComputedValues) {
  const float a[2] = {1, 1};
  const float b[2] = {3, 0};
  const float c[2] = {-1, -1};
  const float inv_sqrt2 = 1.0F / std::sqrt(2.0F);
  EXPECT_NEAR(cosine_cell(a, b, 2, row_norm(a) * row_norm(b)), inv_sqrt2,
              1e-6F);
  EXPECT_NEAR(cosine_cell(a, a, 2, row_norm(a) * row_norm(a)), 1.0F, 1e-6F);
  EXPECT_NEAR(cosine_cell(a, c, 2, row_norm(a) * row_norm(c)), -1.0F, 1e-6F);
}

TEST(CosineCell, ZeroRowScoresZeroAndResultIsClamped) {
  const float zero[2] = {0, 0};
  const float a[2] = {1, 2};
  EXPECT_EQ(cosine_cell(zero, a, 2, row_norm(zero) * row_norm(a)), 0.0F);
  // An understated norm product cannot push a cell outside [-1, 1].
  EXPECT_EQ(cosine_cell(a, a, 2, 1e-3F), 1.0F);
}

TEST(ShardSweep, ScreenShardMatchesBruteForce) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  EmbeddingStore store = embedded_store(model, entries);
  store.remove(2);  // tombstones are never candidates
  const std::size_t limit = store.size() - 3;
  std::vector<std::vector<float>> probe_rows;
  for (std::size_t q = limit; q < store.size(); ++q) {
    probe_rows.push_back(store.row(q));
  }
  const std::vector<std::span<const float>> probes(probe_rows.begin(),
                                                   probe_rows.end());
  for (const float delta : {-2.0F, 0.9F, 2.0F}) {
    const std::vector<ScreenRow> got =
        screen_shard(store, limit, probes, delta);
    ASSERT_EQ(got.size(), probes.size());
    for (std::size_t r = 0; r < probes.size(); ++r) {
      std::vector<std::size_t> flagged;
      std::size_t best = EmbeddingStore::kNoIndex;
      std::size_t scanned = 0;
      for (std::size_t c = 0; c < limit; ++c) {
        if (!store.live(c)) continue;
        ++scanned;
        const float sim = cell(store, limit + r, c);
        if (sim > delta) flagged.push_back(c);
        if (best == EmbeddingStore::kNoIndex ||
            sim > cell(store, limit + r, best)) {
          best = c;
        }
      }
      EXPECT_EQ(got[r].scanned, scanned);
      EXPECT_EQ(got[r].rescored, scanned);
      ASSERT_EQ(got[r].flagged.size(), flagged.size()) << "δ " << delta;
      for (std::size_t f = 0; f < flagged.size(); ++f) {
        EXPECT_EQ(got[r].flagged[f].index, flagged[f]);
        EXPECT_EQ(got[r].flagged[f].similarity,
                  cell(store, limit + r, flagged[f]));
      }
      ASSERT_TRUE(got[r].best.has_value());
      EXPECT_EQ(got[r].best->index, best);
      EXPECT_EQ(got[r].best->similarity, cell(store, limit + r, best));
    }
  }
  // No candidates: one empty partial per probe.
  const std::vector<ScreenRow> none = screen_shard(store, 0, probes, 0.5F);
  ASSERT_EQ(none.size(), probes.size());
  EXPECT_FALSE(none[0].best.has_value());
  EXPECT_EQ(none[0].scanned, 0u);
  EXPECT_THROW((void)screen_shard(store, store.size() + 1, probes, 0.5F),
               util::ContractViolation);
}

TEST(ShardSweep, TileSweepEqualsCellsAcrossTileBoundaries) {
  // 37 rows of dim 5 fill four 8-row tiles and one partial tile, with
  // tombstones in three tiles. Every swept similarity equals cosine_cell
  // of the copied-out rows, for limits on and off tile boundaries, and
  // again after compact() moves rows across tiles and after a save/load.
  EmbeddingStore store;
  for (std::size_t i = 0; i < 37; ++i) {
    tensor::Matrix row(1, 5);
    for (std::size_t k = 0; k < 5; ++k) {
      row.at(0, k) = static_cast<float>((i * 37 + k * 11) % 23) / 7.0F - 1.5F;
    }
    (void)store.add("r" + std::to_string(i), row);
  }
  for (const std::size_t i : {3u, 8u, 30u}) store.remove(i);
  const std::vector<float> probe = {0.5F, -1.0F, 0.25F, 2.0F, -0.75F};
  const std::vector<std::span<const float>> probes = {probe};

  const auto check = [&](const std::string& label) {
    for (const std::size_t limit : {1u, 7u, 8u, 9u, 16u, 17u, 33u, 34u}) {
      if (limit > store.size()) continue;
      std::vector<ScreenMatch> all;
      for (std::size_t c = 0; c < limit; ++c) {
        if (!store.live(c)) continue;
        const std::vector<float> row = store.row(c);
        all.push_back({c, cosine_cell(probe.data(), row.data(), 5,
                                      row_norm(probe) * store.norm(c))});
      }
      const ScreenRow got = screen_shard(store, limit, probes, 0.1F).front();
      EXPECT_EQ(got.scanned, all.size()) << label << ", limit " << limit;
      std::vector<ScreenMatch> flagged;
      for (const ScreenMatch& m : all) {
        if (m.similarity > 0.1F) flagged.push_back(m);
      }
      ASSERT_EQ(got.flagged.size(), flagged.size()) << label;
      for (std::size_t f = 0; f < flagged.size(); ++f) {
        EXPECT_EQ(got.flagged[f].index, flagged[f].index) << label;
        EXPECT_EQ(got.flagged[f].similarity, flagged[f].similarity) << label;
      }
      ASSERT_TRUE(got.best.has_value()) << label;
      const auto lower = [](const ScreenMatch& x, const ScreenMatch& y) {
        return x.similarity < y.similarity;
      };
      const auto best = std::max_element(all.begin(), all.end(), lower);
      EXPECT_EQ(got.best->index, best->index) << label;
      const std::size_t none = EmbeddingStore::kNoIndex;
      const std::vector<ScreenMatch> nearest =
          top_k_shard(store, limit, probe, all.size(), none);
      ASSERT_EQ(nearest.size(), all.size()) << label;
      for (const ScreenMatch& m : nearest) {
        const auto want = std::find_if(
            all.begin(), all.end(),
            [&](const ScreenMatch& a) { return a.index == m.index; });
        ASSERT_NE(want, all.end()) << label;
        EXPECT_EQ(m.similarity, want->similarity) << label;
      }
    }
  };
  check("tombstoned");
  (void)store.compact();
  ASSERT_EQ(store.size(), 34u);
  check("compacted");
  std::stringstream file;
  store.save(file);
  store = EmbeddingStore::load(file, 5);
  check("loaded");
}

TEST(ShardSweep, ScreenShardBestIsTheFirstMaximum) {
  // Duplicate rows tie exactly; the shard's best is the lowest index.
  EmbeddingStore store;
  (void)store.add("north", tensor::Matrix::from_rows({{0, 1}}));
  (void)store.add("east", tensor::Matrix::from_rows({{1, 0}}));
  (void)store.add("east_again", tensor::Matrix::from_rows({{1, 0}}));
  const float probe[2] = {2, 0};
  const std::vector<std::span<const float>> probes = {probe};
  const std::vector<ScreenRow> got = screen_shard(store, 3, probes, 0.5F);
  ASSERT_TRUE(got[0].best.has_value());
  EXPECT_EQ(got[0].best->index, 1u);
  ASSERT_EQ(got[0].flagged.size(), 2u);
  EXPECT_EQ(got[0].flagged[0].index, 1u);
  EXPECT_EQ(got[0].flagged[1].index, 2u);
}

TEST(ShardSweep, TopKShardReturnsNearestNeighboursSorted) {
  EmbeddingStore store;
  (void)store.add("east", tensor::Matrix::from_rows({{1, 0}}));
  (void)store.add("near_east", tensor::Matrix::from_rows({{1, 0.1F}}));
  (void)store.add("north", tensor::Matrix::from_rows({{0, 1}}));
  (void)store.add("west", tensor::Matrix::from_rows({{-1, 0}}));
  (void)store.add("east_again", tensor::Matrix::from_rows({{1, 0}}));
  const std::vector<ScreenMatch> nearest =
      top_k_shard(store, 4, store.row(0), 2, /*exclude=*/0);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0].index, 1u);  // near_east
  EXPECT_EQ(nearest[1].index, 2u);  // north (cos 0) beats west (cos −1)
  EXPECT_EQ(nearest[0].similarity, cell(store, 0, 1));
  // k past the candidates: every other row within the limit, still
  // sorted; the row past the limit never appears.
  EXPECT_EQ(top_k_shard(store, 4, store.row(0), 99, 0).size(), 3u);
  // Nothing excluded: the exact self-match ranks first, and an exact
  // tie (east_again) goes to the lower index.
  const std::vector<ScreenMatch> with_self = top_k_shard(
      store, store.size(), store.row(0), 2, EmbeddingStore::kNoIndex);
  ASSERT_EQ(with_self.size(), 2u);
  EXPECT_EQ(with_self[0].index, 0u);
  EXPECT_EQ(with_self[1].index, 4u);
  store.remove(1);
  EXPECT_EQ(top_k_shard(store, 4, store.row(0), 1, 0).front().index, 2u);
}

TEST(ShardSweep, MatchesPerPairPathWithin1e5) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const EmbeddingStore store = embedded_store(model, entries);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::vector<ScreenMatch> ranked = top_k_shard(
        store, store.size(), store.row(i), store.size(), /*exclude=*/i);
    ASSERT_EQ(ranked.size(), entries.size() - 1);
    for (const ScreenMatch& m : ranked) {
      EXPECT_NEAR(m.similarity,
                  per_pair_cosine(model, entries[i], entries[m.index]), 1e-5F)
          << "pair (" << entries[i].name << ", " << entries[m.index].name
          << ")";
    }
  }
}

TEST(CorpusEmbedding, EmbedAllIdenticalAcross1And2And8Workers) {
  // Trainer::embed_all fans the embedding phase out over the worker
  // pool; every row must be bit-identical for any worker count.
  gnn::Hw2Vec model;
  const train::PairDataset dataset =
      train::PairDataset::all_pairs(small_corpus());
  std::vector<std::vector<tensor::Matrix>> per_count;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    train::TrainConfig config;
    config.num_threads = threads;
    train::Trainer trainer(model, dataset, config);
    per_count.push_back(trainer.embed_all());
  }
  for (std::size_t run = 1; run < per_count.size(); ++run) {
    ASSERT_EQ(per_count[run].size(), per_count[0].size());
    for (std::size_t g = 0; g < per_count[0].size(); ++g) {
      EXPECT_EQ(tensor::max_abs_diff(per_count[run][g], per_count[0][g]),
                0.0F);
    }
  }
}

}  // namespace
}  // namespace gnn4ip::core
