// core::shard_sweep — the exact sweep of probe rows over one shard, and
// the merge of every shard's partials into one global answer.
//
// ShardedCorpus runs the sweeps per shard and dist::ShardServer runs
// them on its one store, so a local shard and a remote one produce
// their partials with the same code. A sweep steps through the store
// one tile (kTileRows rows) at a time: cosine_tile_dots folds the
// probe against the whole tile and cosine_finish turns each lane into
// its cell, so every similarity is bit for bit cosine_cell of the probe
// row and the stored row over row_norm(probe) × the store's cached
// norm. Candidates are visited in ascending local order, and a shard's
// best is the first maximum in that order. Within one shard
// local order equals global order, and both front ends (ShardedCorpus
// and dist::DistCorpus) combine the partials with merge_screen and
// merge_top_k — fixed tie-breaks, similarity descending then global
// index ascending — so they reach the same verdicts whichever process
// ran the sweep.
//
// Candidates are the live rows among the first `limit` of the store: a
// front end passes the prefix of rows admitted before its screening cut
// (screen_new_rows' first_new), or the whole store for top-k.
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

/// Merge per-shard screen partials into one row per probe, in global
/// indices. partials[s][r] is probe r's partial from shard s in local
/// indices (screen_shard's result); globals[s][local] is that row's
/// global index. Flagged matches come out ascending by global index, the
/// best is the highest similarity with ties to the lowest global index,
/// and the tallies are summed over shards.
[[nodiscard]] std::vector<ScreenRow> merge_screen(
    const std::vector<std::vector<ScreenRow>>& partials,
    const std::vector<std::vector<std::size_t>>& globals);

/// Merge per-shard top-k prefixes (top_k_shard's results, local
/// indices) into the k best overall as {query, global, similarity}:
/// descending similarity, ties by ascending global index. That order is
/// total, so the result does not depend on which shard a row sits in.
[[nodiscard]] std::vector<PairScore> merge_top_k(
    const std::vector<std::vector<ScreenMatch>>& prefixes,
    const std::vector<std::vector<std::size_t>>& globals, std::size_t query,
    std::size_t k);

}  // namespace gnn4ip::core
