// Free-function cosine kernel and the scoring knobs every layer shares.
//
// Every similarity the repo reports — core::shard_sweep (behind both
// ShardedCorpus and dist::ShardServer) and, through them,
// audit::AuditService — funnels through cosine_cell, so the arithmetic
// (accumulation order, norm floor, clamping) is defined exactly once.
// That single definition is what makes the repo's determinism guarantee
// composable: any path that scores the same two rows produces the same
// bits, no matter which layer asked.
//
// Per-cell arithmetic: dot product accumulated in ascending-k order,
// norms as sqrt of an ascending-k sum of squares, denominator floored at
// kNormFloor (all-zero embeddings score 0 instead of NaN), result
// clamped into [-1, 1].
#pragma once

#include <algorithm>
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

/// Guard on the norm *product*, exactly like PiracyDetector::similarity:
/// all-zero embeddings score 0 instead of NaN, and the result is clamped
/// into the documented [-1, 1] so every path agrees bit-for-bit on
/// degenerate inputs too.
inline constexpr float kNormFloor = 1e-8F;

/// Euclidean norm of one row (ascending-k sum of squares, then sqrt) —
/// the norm EmbeddingStore caches for every row it holds.
[[nodiscard]] float row_norm(std::span<const float> row);

/// One cell: ascending-k dot of two D-rows over a precomputed norm
/// product, floored and clamped. THE per-cell definition — the sweeps of
/// core/shard_sweep.h are its only callers, so the cross-layer
/// bit-identity contract has exactly one implementation to drift from.
[[nodiscard]] inline float cosine_cell(const float* a, const float* b,
                                       std::size_t dim, float norm_product) {
  float acc = 0.0F;
  for (std::size_t k = 0; k < dim; ++k) acc += a[k] * b[k];
  return std::clamp(acc / std::max(norm_product, kNormFloor), -1.0F, 1.0F);
}

}  // namespace gnn4ip::core
