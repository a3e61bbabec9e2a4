// Sharded resident corpus: K EmbeddingStore shards behind one index.
//
// One contiguous N×D cache stops scaling long before the corpus does —
// a single allocation, a single compaction pass, and a single consumer
// own every row. ShardedCorpus splits the resident rows across K
// EmbeddingStore shards by a deterministic hash of the design *name*
// (FNV-1a — stable across runs, platforms, and shard-local history), so
// placement never depends on arrival order, and per-shard work (scoring
// sweeps, compaction) can proceed independently.
//
// Callers never see shard-local indices. Every public index is a
// *global* id assigned in insertion order: add() returns N, remove(i)
// tombstones, compact() remaps to a dense 0..live−1 numbering in
// insertion order. Each shard's partials come from the sweeps of
// core/shard_sweep.h, and its merges use fixed tie-breaks (descending
// similarity, then ascending global index), so
// screen_new_rows()/top_k() give bit-identical results for any shard
// count × worker count — the sharding test suite checks them against an
// exhaustive oracle, and audit::AuditService relies on it.
//
// screen_new_rows and top_k fan the shards out over util::ThreadPool
// (each shard's task writes only its own partials), so screening scales
// across cores without a determinism tax.
//
// Concurrency: a standard container's contract. The corpus takes no
// lock on its rows: const members may overlap, and a mutation (add,
// remove, compact, restore) excludes every other call. The owner
// provides that exclusion — audit::AuditService makes every corpus call
// under its state lock, shared for reads and exclusive for commits.
// fan_out() reads no rows and may run at any time.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/corpus_backend.h"
#include "core/cosine_kernels.h"
#include "core/embedding_store.h"
#include "core/global_index.h"
#include "tensor/matrix.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace gnn4ip::core {

class ShardedCorpus final : public CorpusBackend {
 public:
  /// "No such row": returned by compact() for removed rows.
  static constexpr std::size_t kNoIndex = EmbeddingStore::kNoIndex;
  static_assert(kNoIndex == CorpusBackend::kNoIndex);

  /// `num_shards` stores (≥ 1).
  explicit ShardedCorpus(std::size_t num_shards = 1,
                         const ScorerOptions& options = {});

  /// Deterministic shard placement: FNV-1a of `name`, mod `num_shards`.
  /// Pure function of the name, so the same design always lands in the
  /// same shard regardless of arrival order or corpus history.
  [[nodiscard]] static std::size_t placement(std::string_view name,
                                             std::size_t num_shards);

  /// Append one design's embedding. Returns its global index (insertion
  /// order, dense after compact()).
  std::size_t add(std::string name, const tensor::Matrix& embedding) override;

  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] const std::string& name(std::size_t i) const override;
  [[nodiscard]] const ScorerOptions& options() const { return options_; }

  /// A copy of the row behind global index `i` (length dim()): shards
  /// hold rows in dimension-major tiles (EmbeddingStore), so a row is
  /// gathered, not viewed.
  [[nodiscard]] std::vector<float> row(std::size_t i) const;

  /// Tombstone global row `i` (skipped by screening and top_k, erased by
  /// the next compact; row(i) stays addressable until then).
  void remove(std::size_t i) override;
  [[nodiscard]] bool live(std::size_t i) const override;
  [[nodiscard]] std::size_t live_count() const override { return live_count_; }

  /// Compact every shard and renumber the global index space densely in
  /// insertion order. Returns result[old_global] = new_global or
  /// kNoIndex — the same mapping values for any shard count. Rows below
  /// the lowest removed global keep their index and are not rewritten,
  /// so the pass costs the rows from there on.
  std::vector<std::size_t> compact() override;

  // ---- Shard introspection ----------------------------------------------
  [[nodiscard]] std::size_t num_shards() const override { return shards_.size(); }
  /// The shard holding global row `i`, and shard `s`'s live rows.
  [[nodiscard]] std::size_t shard_of(std::size_t i) const;
  [[nodiscard]] std::size_t shard_live_count(std::size_t s) const;

  // ---- Scoring (bit-identical for any shard count × worker count) ------
  /// Verdict-shaped screening: for every row with global index ≥
  /// `first_new`, the flagged matches (similarity > delta) and the best
  /// match among *live* rows with global index < first_new, every
  /// similarity the exact cosine_cell value. Shards fan out over the
  /// worker pool (screen_shard); merge_screen combines the per-shard
  /// partials, so the best is the first maximum in global order.
  [[nodiscard]] std::vector<ScreenRow> screen_new_rows(
      std::size_t first_new, float delta) const override;

  /// The k live entries most similar to global row `i` (i itself and
  /// removed rows excluded), descending similarity with ascending-index
  /// tie-break. Each shard returns its top-min(k) prefix (top_k_shard)
  /// and merge_top_k merges them under a total order, so the result is
  /// independent of shard count and worker count.
  [[nodiscard]] std::vector<PairScore> top_k(std::size_t i,
                                             std::size_t k) const override;

  // ---- Persistence (snapshot directory: manifest + one file per shard) --
  /// Write the corpus to directory `dir` (created if absent): one
  /// binary shard file per shard plus a text manifest recording the
  /// shard count, the placement scheme, the global index order, and
  /// `model_fingerprint` (the embedder that produced these rows — see
  /// gnn::model_fingerprint). Throws SnapshotIoError when files cannot
  /// be written.
  void save(const std::string& dir, std::string_view model_fingerprint) const override;

  /// Replace this corpus's contents with a snapshot written by save().
  /// Adopts the snapshot's shard count and dim; keeps the configured
  /// options(). With a non-empty `expected_fingerprint`, a snapshot
  /// recorded against a different embedder is rejected
  /// (SnapshotFingerprintError). All parsing and validation happens
  /// before the corpus is touched, so on any typed SnapshotError the
  /// in-memory state is unchanged.
  void restore(const std::string& dir, std::string_view expected_fingerprint);

  /// The model fingerprint recorded in a snapshot directory's manifest
  /// (validated for magic/version only) — lets a deployment check
  /// compatibility before committing to a full restore.
  [[nodiscard]] static std::string snapshot_fingerprint(
      const std::string& dir);

  /// Run fn(i) for i in [0, count) on this corpus's worker resolution:
  /// an explicit num_threads > 1 uses one lazily-spawned owned pool
  /// (screening is a hot loop — no transient pool spawn/join per call),
  /// 0 the process-wide shared pool, 1 runs inline. Exposed so the
  /// audit layer's batch fan-outs ride the same pool as the scoring
  /// ones. Safe from concurrent callers (lazy spawn is guarded;
  /// concurrent batches serialize inside ThreadPool::parallel_for).
  void fan_out(std::size_t count,
               const std::function<void(std::size_t)>& fn) const override;

  /// A fresh single-shard ShardedCorpus restored from `dir` (it adopts
  /// the snapshot's shard count and dim during restore(); options carry
  /// over from this corpus). The CorpusBackend load seam — every typed
  /// SnapshotError propagates with nothing swapped.
  [[nodiscard]] std::unique_ptr<CorpusBackend> restored(
      const std::string& dir,
      std::string_view expected_fingerprint) const override;

 private:
  ScorerOptions options_;

  /// Guards the lazy spawn of pool_: two readers (say, top_k calls under
  /// the audit layer's shared state lock) may race the first fan_out.
  mutable util::Mutex pool_mu_{util::lock_rank::kPoolSpawn};
  /// Owned workers for explicit num_threads > 1, spawned on first
  /// fan_out (0 defers to ThreadPool::shared(), which needs no owner).
  mutable std::unique_ptr<util::ThreadPool> pool_ GNN4IP_GUARDED_BY(pool_mu_);

  std::size_t dim_ = 0;
  std::size_t live_count_ = 0;
  std::vector<EmbeddingStore> shards_;
  std::vector<EntryRef> entries_;  // global index -> (shard, local)
  // Per shard: local index -> global index (appended by add(),
  // renumbered by compact()).
  std::vector<std::vector<std::size_t>> globals_;
};

}  // namespace gnn4ip::core
