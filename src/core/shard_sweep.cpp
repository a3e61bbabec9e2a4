#include "core/shard_sweep.h"

#include <algorithm>
#include <array>

#include "core/cosine_kernels.h"
#include "util/contract.h"

namespace gnn4ip::core {

std::vector<ScreenRow> screen_shard(
    const EmbeddingStore& store, std::size_t limit,
    std::span<const std::span<const float>> probes, float delta) {
  GNN4IP_ENSURE(limit <= store.size(), "screen_shard: limit past the store");
  std::vector<ScreenRow> partials(probes.size());
  if (limit == 0) return partials;
  const std::size_t d = store.dim();
  std::vector<float> probe_norms(probes.size());
  for (std::size_t r = 0; r < probes.size(); ++r) {
    GNN4IP_ENSURE(probes[r].size() == d, "screen_shard: probe dim mismatch");
    probe_norms[r] = row_norm(probes[r]);
  }
  // Tile-major: each stored tile is read once for every probe, and each
  // probe visits the tile's lanes in ascending local order.
  for (std::size_t base = 0; base < limit; base += kTileRows) {
    const float* tile = store.tile(base / kTileRows).data();
    const std::size_t lanes = std::min(kTileRows, limit - base);
    for (std::size_t r = 0; r < probes.size(); ++r) {
      const std::array<float, kTileRows> dots =
          cosine_tile_dots(probes[r].data(), tile, d);
      ScreenRow& p = partials[r];
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t local = base + j;
        if (store.dead_[local]) continue;
        ++p.scanned;
        const float sim =
            cosine_finish(dots[j], probe_norms[r] * store.norms_[local]);
        if (sim > delta) p.flagged.push_back({local, sim});
        if (!p.best || sim > p.best->similarity) {
          p.best = ScreenMatch{local, sim};
        }
      }
    }
  }
  for (ScreenRow& p : partials) p.rescored = p.scanned;
  return partials;
}

std::vector<ScreenMatch> top_k_shard(const EmbeddingStore& store,
                                     std::size_t limit,
                                     std::span<const float> probe,
                                     std::size_t k, std::size_t exclude) {
  GNN4IP_ENSURE(limit <= store.size(), "top_k_shard: limit past the store");
  std::vector<ScreenMatch> cands;
  if (limit == 0) return cands;
  const std::size_t d = store.dim();
  GNN4IP_ENSURE(probe.size() == d, "top_k_shard: probe dim mismatch");
  const float probe_norm = row_norm(probe);
  for (std::size_t base = 0; base < limit; base += kTileRows) {
    const float* tile = store.tile(base / kTileRows).data();
    const std::array<float, kTileRows> dots =
        cosine_tile_dots(probe.data(), tile, d);
    const std::size_t lanes = std::min(kTileRows, limit - base);
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t local = base + j;
      if (local == exclude || store.dead_[local]) continue;
      const float norm_product = probe_norm * store.norms_[local];
      cands.push_back({local, cosine_finish(dots[j], norm_product)});
    }
  }
  const std::size_t keep = std::min(k, cands.size());
  const auto closer = [](const ScreenMatch& x, const ScreenMatch& y) {
    if (x.similarity != y.similarity) return x.similarity > y.similarity;
    return x.index < y.index;
  };
  std::partial_sort(cands.begin(),
                    cands.begin() + static_cast<std::ptrdiff_t>(keep),
                    cands.end(), closer);
  cands.resize(keep);
  return cands;
}

std::vector<ScreenRow> merge_screen(
    const std::vector<std::vector<ScreenRow>>& partials,
    const std::vector<std::vector<std::size_t>>& globals) {
  GNN4IP_ENSURE(!partials.empty() && partials.size() == globals.size(),
                "merge_screen: need one partial set per shard");
  std::vector<ScreenRow> merged(partials.front().size());
  for (std::size_t s = 0; s < partials.size(); ++s) {
    GNN4IP_ENSURE(partials[s].size() == merged.size(),
                  "merge_screen: shards disagree on the probe count");
    for (std::size_t r = 0; r < merged.size(); ++r) {
      const ScreenRow& p = partials[s][r];
      ScreenRow& out = merged[r];
      out.scanned += p.scanned;
      out.rescored += p.rescored;
      for (const ScreenMatch& m : p.flagged) {
        out.flagged.push_back({globals[s][m.index], m.similarity});
      }
      if (!p.best) continue;
      const ScreenMatch best{globals[s][p.best->index], p.best->similarity};
      if (!out.best || best.similarity > out.best->similarity ||
          (best.similarity == out.best->similarity &&
           best.index < out.best->index)) {
        out.best = best;
      }
    }
  }
  for (ScreenRow& out : merged) {
    std::sort(out.flagged.begin(), out.flagged.end(),
              [](const ScreenMatch& x, const ScreenMatch& y) {
                return x.index < y.index;
              });
  }
  return merged;
}

std::vector<PairScore> merge_top_k(
    const std::vector<std::vector<ScreenMatch>>& prefixes,
    const std::vector<std::vector<std::size_t>>& globals, std::size_t query,
    std::size_t k) {
  GNN4IP_ENSURE(prefixes.size() == globals.size(),
                "merge_top_k: need one prefix per shard");
  std::vector<PairScore> merged;
  for (std::size_t s = 0; s < prefixes.size(); ++s) {
    for (const ScreenMatch& m : prefixes[s]) {
      merged.push_back({query, globals[s][m.index], m.similarity});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const PairScore& x, const PairScore& y) {
              if (x.similarity != y.similarity) {
                return x.similarity > y.similarity;
              }
              return x.b < y.b;
            });
  merged.resize(std::min(k, merged.size()));
  return merged;
}

}  // namespace gnn4ip::core
