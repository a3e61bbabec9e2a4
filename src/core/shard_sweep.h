// core::shard_sweep — the exact sweep of probe rows over one shard.
//
// ShardedCorpus runs these per shard under its stripes and
// dist::ShardServer runs them on its one store, so a local shard and a
// remote one produce their partials with the same code: every
// similarity is cosine_cell of the probe row and the stored row over
// row_norm(probe) × the store's cached norm, candidates are visited in
// ascending local order, and a shard's best is the first maximum in
// that order. Within one shard local order equals global order, so the
// front ends' fixed-tie-break merges (similarity descending, then index
// ascending) reach the same verdicts whichever process ran the sweep.
//
// Candidates are the live rows among the first `limit` of the store: a
// front end passes the prefix of rows admitted before its snapshot, so
// rows appended concurrently (or past a screening cut) are never read.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/corpus_backend.h"
#include "core/embedding_store.h"

namespace gnn4ip::core {

/// Screen every probe row against the candidates of `store`. Result r is
/// probe r's partial in shard-local indices: the candidates with
/// similarity > delta (ascending), the first-max best, and
/// scanned == rescored == the number of candidates.
[[nodiscard]] std::vector<ScreenRow> screen_shard(
    const EmbeddingStore& store, std::size_t limit,
    std::span<const std::span<const float>> probes, float delta);

/// The min(k, candidates) candidates of `store` most similar to `probe`,
/// local row `exclude` skipped (kNoIndex skips none): descending
/// similarity, ties by ascending local index — the shard's prefix of
/// the merged top-k.
[[nodiscard]] std::vector<ScreenMatch> top_k_shard(
    const EmbeddingStore& store, std::size_t limit,
    std::span<const float> probe, std::size_t k, std::size_t exclude);

}  // namespace gnn4ip::core
