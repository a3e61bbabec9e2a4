// Free-function cosine kernel and the scoring knobs every layer shares.
//
// Every similarity a verdict reports — core::shard_sweep (behind both
// ShardedCorpus and dist::ShardServer), through them
// audit::AuditService, and PiracyDetector::similarity's cosine_cell —
// and every score δ is tuned on (train::Trainer::evaluate) is an
// ascending-k dot finished by cosine_finish, so the arithmetic
// (accumulation order, norm floor, clamping) is defined exactly once,
// in this file. That single definition is what makes the
// repo's determinism guarantee composable: any path that scores the
// same two rows produces the same bits, no matter which layer asked.
//
// Per-cell arithmetic: dot product accumulated in ascending-k order
// starting from 0, norms as sqrt of an ascending-k sum of squares,
// denominator floored at kNormFloor (all-zero embeddings score 0
// instead of NaN), result clamped into [-1, 1]. cosine_cell computes
// one cell; cosine_tile_dots computes the dots of one probe against a
// tile of kTileRows stored rows (EmbeddingStore's layout) with eight
// independent accumulators, each performing exactly cosine_cell's
// sequence of float operations — so a swept cell and a cosine_cell of
// the same two rows are the same bits, while the compiler is free to
// run the eight lanes in vector registers.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>

namespace gnn4ip::core {

/// Scoring knobs shared by every layer that scores pairs: ShardedCorpus,
/// DistCorpus, and audit::AuditService all read this one struct instead
/// of re-declaring thread/threshold fields.
struct ScorerOptions {
  /// Worker threads for the embedding and shard fan-outs. 0 = the shared
  /// util::ThreadPool (GNN4IP_THREADS, else hardware concurrency).
  /// Results are bit-identical for any value.
  std::size_t num_threads = 0;
  /// Decision boundary δ (Alg. 1): a pair is piracy when Ŷ > delta.
  float delta = 0.5F;
};

/// One scored unordered pair (indices into the owning corpus).
struct PairScore {
  std::size_t a = 0;
  std::size_t b = 0;
  float similarity = 0.0F;  // Ŷ ∈ [−1, 1]
};

/// Guard on the norm *product*: all-zero embeddings score 0 instead of
/// NaN, and the result is clamped into the documented [-1, 1] so every
/// path agrees bit-for-bit on degenerate inputs too.
inline constexpr float kNormFloor = 1e-8F;

/// Euclidean norm of one row (ascending-k sum of squares, then sqrt) —
/// the norm EmbeddingStore caches for every row it holds.
[[nodiscard]] float row_norm(std::span<const float> row);

/// The end of every cell: `dot` over the norm product, floored at
/// kNormFloor and clamped into [-1, 1].
[[nodiscard]] inline float cosine_finish(float dot, float norm_product) {
  return std::clamp(dot / std::max(norm_product, kNormFloor), -1.0F, 1.0F);
}

/// One cell: ascending-k dot of two D-rows over a precomputed norm
/// product, finished by cosine_finish. THE per-cell definition, with
/// cosine_tile_dots its eight-lane form for the sweeps of
/// core/shard_sweep.h — the cross-layer bit-identity contract has this
/// one file to drift from.
[[nodiscard]] inline float cosine_cell(const float* a, const float* b,
                                       std::size_t dim, float norm_product) {
  float acc = 0.0F;
  for (std::size_t k = 0; k < dim; ++k) acc += a[k] * b[k];
  return cosine_finish(acc, norm_product);
}

/// Rows per EmbeddingStore tile: the lanes one cosine_tile_dots call
/// folds side by side.
inline constexpr std::size_t kTileRows = 8;

/// The dots of `probe` with the kTileRows rows of one dimension-major
/// tile (element (row j, dim k) at tile[k·kTileRows + j]). Lane j is an
/// ascending-k fold from 0 — cosine_cell's dot of probe and row j, bit
/// for bit; pass it to cosine_finish for the cell.
[[nodiscard]] inline std::array<float, kTileRows> cosine_tile_dots(
    const float* probe, const float* tile, std::size_t dim) {
  std::array<float, kTileRows> acc{};
  for (std::size_t k = 0; k < dim; ++k) {
    const float* lanes = tile + k * kTileRows;
    for (std::size_t j = 0; j < kTileRows; ++j) acc[j] += probe[k] * lanes[j];
  }
  return acc;
}

}  // namespace gnn4ip::core
