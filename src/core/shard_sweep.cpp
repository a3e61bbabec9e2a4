#include "core/shard_sweep.h"

#include <algorithm>

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
  // Candidate-major: each stored row is read once for every probe.
  for (std::size_t local = 0; local < limit; ++local) {
    if (!store.live(local)) continue;
    const float* rb = store.row(local).data();
    const float norm_b = store.norm(local);
    for (std::size_t r = 0; r < probes.size(); ++r) {
      ScreenRow& p = partials[r];
      ++p.scanned;
      const float sim =
          cosine_cell(probes[r].data(), rb, d, probe_norms[r] * norm_b);
      if (sim > delta) p.flagged.push_back({local, sim});
      if (!p.best || sim > p.best->similarity) p.best = ScreenMatch{local, sim};
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
  for (std::size_t local = 0; local < limit; ++local) {
    if (local == exclude || !store.live(local)) continue;
    cands.push_back({local, cosine_cell(probe.data(), store.row(local).data(),
                                        d, probe_norm * store.norm(local))});
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

}  // namespace gnn4ip::core
