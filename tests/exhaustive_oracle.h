// Exhaustive reference for corpus screening and ranking.
//
// Computes screen_new_rows and top_k by brute force over a corpus's
// global index space: every cell is cosine_cell of corpus.row(a) and
// corpus.row(b) over the product of their row_norms, candidates are
// visited in ascending global index, and ties go to the lowest index.
// No sharding, no merging, no worker pool — so when a corpus agrees
// with this oracle bit for bit, its shard sweeps and fixed-tie-break
// merges are proven invisible for that configuration.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/corpus_backend.h"
#include "core/cosine_kernels.h"

namespace gnn4ip::oracle {

/// The exact similarity of global rows a and b of `corpus` (any type
/// with row(i) returning a copy of the row's floats).
template <typename Corpus>
[[nodiscard]] float cell(const Corpus& corpus, std::size_t a, std::size_t b) {
  const std::vector<float> ra = corpus.row(a);
  const std::vector<float> rb = corpus.row(b);
  return core::cosine_cell(ra.data(), rb.data(), ra.size(),
                           core::row_norm(ra) * core::row_norm(rb));
}

/// screen_new_rows(first_new, delta) by brute force: each row ≥
/// first_new against every live row < first_new.
template <typename Corpus>
[[nodiscard]] std::vector<core::ScreenRow> screen(const Corpus& corpus,
                                                  std::size_t first_new,
                                                  float delta) {
  std::vector<core::ScreenRow> out;
  for (std::size_t q = first_new; q < corpus.size(); ++q) {
    core::ScreenRow row;
    for (std::size_t c = 0; c < first_new; ++c) {
      if (!corpus.live(c)) continue;
      const float sim = cell(corpus, q, c);
      ++row.scanned;
      ++row.rescored;
      if (sim > delta) row.flagged.push_back({c, sim});
      if (!row.best || sim > row.best->similarity) {
        row.best = core::ScreenMatch{c, sim};
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// top_k(i, k) by brute force: every other live row, descending
/// similarity, ascending index on ties.
template <typename Corpus>
[[nodiscard]] std::vector<core::PairScore> top_k(const Corpus& corpus,
                                                 std::size_t i,
                                                 std::size_t k) {
  std::vector<core::PairScore> all;
  for (std::size_t b = 0; b < corpus.size(); ++b) {
    if (b == i || !corpus.live(b)) continue;
    all.push_back({i, b, cell(corpus, i, b)});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const core::PairScore& x, const core::PairScore& y) {
                     return x.similarity > y.similarity;
                   });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Bit-exact equality of two screens: indices, similarities, best, and
/// the scanned/rescored tallies.
inline void expect_same_screen(const std::vector<core::ScreenRow>& got,
                               const std::vector<core::ScreenRow>& want,
                               const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t r = 0; r < want.size(); ++r) {
    const core::ScreenRow& g = got[r];
    const core::ScreenRow& w = want[r];
    ASSERT_EQ(g.flagged.size(), w.flagged.size()) << label << ", row " << r;
    for (std::size_t f = 0; f < w.flagged.size(); ++f) {
      EXPECT_EQ(g.flagged[f].index, w.flagged[f].index) << label;
      EXPECT_EQ(g.flagged[f].similarity, w.flagged[f].similarity) << label;
    }
    ASSERT_EQ(g.best.has_value(), w.best.has_value()) << label << ", row " << r;
    if (w.best) {
      EXPECT_EQ(g.best->index, w.best->index) << label << ", row " << r;
      EXPECT_EQ(g.best->similarity, w.best->similarity) << label;
    }
    EXPECT_EQ(g.scanned, w.scanned) << label << ", row " << r;
    EXPECT_EQ(g.rescored, w.rescored) << label << ", row " << r;
  }
}

/// Bit-exact equality of two rankings.
inline void expect_same_ranking(const std::vector<core::PairScore>& got,
                                const std::vector<core::PairScore>& want,
                                const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << label << ", rank " << i;
    EXPECT_EQ(got[i].b, want[i].b) << label << ", rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << label << ", rank " << i;
  }
}

}  // namespace gnn4ip::oracle
