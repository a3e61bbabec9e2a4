// core::CorpusBackend — the resident-corpus seam of the audit layer.
//
// audit::AuditService drives exactly one corpus surface: admissions
// (add/remove/compact), verdict-shaped screening (screen_new_rows),
// ranking (top_k), the shard count, snapshot save/restore, and the
// worker fan-out its batch phases ride.
// This interface names that surface, so the commit turnstile,
// eviction, and snapshot layers run unchanged on top of any
// implementation:
//
//   * core::ShardedCorpus — K EmbeddingStore shards in-process (the
//     reference implementation every other one must match bit-for-bit);
//   * dist::DistCorpus  — the same K shards as remote gnn4ip_shardd
//     processes behind the G4IPWIRE protocol (src/dist/dist_corpus.h).
//
// The contract is behavioural, not just syntactic: both implementations
// compute every shard's partials with the sweeps of core/shard_sweep.h
// and combine them with its merges (fixed tie-breaks: descending
// similarity, then ascending index) — that is what keeps verdicts
// bit-identical across implementations, shard counts, and process
// counts.
//
// Synchronization is the caller's, as for a standard container: const
// members may run concurrently with each other, and a mutation (add,
// remove, compact) must exclude every other call. audit::AuditService
// holds its state lock shared around reads and exclusively around
// commits. fan_out() reads no corpus state and is safe at any time.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cosine_kernels.h"
#include "tensor/matrix.h"

namespace gnn4ip::core {

/// One screened candidate: a live corpus row and its exact similarity
/// (cosine_cell of the two rows).
struct ScreenMatch {
  std::size_t index = 0;
  float similarity = 0.0F;
};

/// What screening one incoming row actually needs — the flagged matches
/// and the best match, with exact similarities — instead of the full
/// 1×N matrix.
struct ScreenRow {
  /// Live candidates with similarity > delta, ascending corpus index.
  std::vector<ScreenMatch> flagged;
  /// The most similar live candidate (ties: lowest index); unset when
  /// there are no candidates.
  std::optional<ScreenMatch> best;
  /// Live candidates considered.
  std::size_t scanned = 0;
  /// Candidates whose exact similarity was computed — every scanned
  /// one, so always equal to scanned.
  std::size_t rescored = 0;
};

class CorpusBackend {
 public:
  /// "No such row": returned by compact() for removed rows.
  static constexpr std::size_t kNoIndex =
      std::numeric_limits<std::size_t>::max();

  virtual ~CorpusBackend() = default;

  // ---- Global index space (insertion order, dense after compact) --------
  virtual std::size_t add(std::string name,
                          const tensor::Matrix& embedding) = 0;
  virtual void remove(std::size_t i) = 0;
  /// result[old_global] = new_global or kNoIndex, shard-count-invariant.
  virtual std::vector<std::size_t> compact() = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::size_t dim() const = 0;
  [[nodiscard]] virtual std::size_t live_count() const = 0;
  [[nodiscard]] virtual bool live(std::size_t i) const = 0;
  [[nodiscard]] virtual const std::string& name(std::size_t i) const = 0;

  [[nodiscard]] virtual std::size_t num_shards() const = 0;

  // ---- Scoring (bit-identical across implementations) -------------------
  [[nodiscard]] virtual std::vector<ScreenRow> screen_new_rows(
      std::size_t first_new, float delta) const = 0;
  [[nodiscard]] virtual std::vector<PairScore> top_k(std::size_t i,
                                                     std::size_t k) const = 0;

  // ---- Persistence ------------------------------------------------------
  virtual void save(const std::string& dir,
                    std::string_view model_fingerprint) const = 0;

  /// Build a fresh, fully validated corpus of this implementation's kind
  /// from a snapshot directory — the load half of the warm-restart path.
  /// Every malformed-snapshot case throws a distinct typed SnapshotError
  /// before any state (local or remote) is touched; the caller swaps the
  /// returned corpus in only after its own cross-checks pass. The
  /// receiver's configuration (ScorerOptions, and for the distributed
  /// corpus its shard connections) carries over.
  [[nodiscard]] virtual std::unique_ptr<CorpusBackend> restored(
      const std::string& dir, std::string_view expected_fingerprint) const = 0;

  /// Run fn(i) for i in [0, count) on this corpus's worker resolution
  /// (owned pool / shared pool / inline — see ScorerOptions::num_threads).
  /// Exposed so the audit layer's batch fan-outs ride the same pool as
  /// the scoring ones.
  virtual void fan_out(std::size_t count,
                       const std::function<void(std::size_t)>& fn) const = 0;
};

}  // namespace gnn4ip::core
