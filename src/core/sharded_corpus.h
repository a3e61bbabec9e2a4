// Sharded resident corpus: K EmbeddingStore shards behind one index.
//
// One contiguous N×D cache stops scaling long before the corpus does —
// a single allocation, a single compaction pass, and a single consumer
// own every row. ShardedCorpus splits the resident rows across K
// EmbeddingStore shards by a deterministic hash of the design *name*
// (FNV-1a — stable across runs, platforms, and shard-local history), so
// placement never depends on arrival order, and per-shard work (scoring
// sweeps, compaction, eviction budgets) can proceed independently.
//
// Callers never see shard-local indices. Every public index is a
// *global* id assigned in insertion order: add() returns N, remove(i)
// tombstones, compact() remaps to a dense 0..live−1 numbering in
// insertion order. Each shard's partials come from the sweeps of
// core/shard_sweep.h, and the merges below use fixed tie-breaks
// (descending similarity, then ascending global index), so
// screen_new_rows()/top_k() give bit-identical results for any shard
// count × worker count — the sharding test suite checks them against an
// exhaustive oracle, and audit::AuditService relies on it.
//
// screen_new_rows and top_k fan the shards out over util::ThreadPool
// (each shard's task writes only its own partials), so screening scales
// across cores without a determinism tax.
//
// Concurrency (shard-striped reader/writer locking): the corpus is safe
// for K consumer threads screening concurrent batches.
//   - Reads (screen_new_rows/top_k/row/name/live/counts) take every
//     touched shard's stripe *shared* — readers overlap freely across
//     consumers.
//   - Admissions (add) and tombstoning (remove) serialize on the global
//     index (the deterministic admission-ticket fold: global ids are
//     assigned in the order admitters win index_mu_) and take only the
//     placed shard's stripe exclusively — an admission blocks readers of
//     its own shard, never the other shards' scans.
//   - compact() takes the global epoch (epoch_mu_ exclusive): it waits
//     out every in-flight reader and admitter, so an index remap can
//     never race a reader holding spans or stale global ids.
// A scan snapshots the corpus size up front and skips rows admitted
// after it started, so concurrent admissions change *when* a row is
// first scored, never the arithmetic of cells already in flight.
// row()/name() return references whose lifetime ends at the next
// compact(), exactly as before; callers racing admissions must treat
// them as invalidated by add() of the same shard too (the audit layer's
// serialized commit point guarantees this).
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

  /// `num_shards` stores (≥ 1). `shard_budget` is the per-shard live-row
  /// budget eviction layers enforce (0 = unbounded); the corpus itself
  /// only records and reports it — see audit::AuditService.
  explicit ShardedCorpus(std::size_t num_shards = 1,
                         const ScorerOptions& options = {},
                         std::size_t shard_budget = 0);

  /// Deterministic shard placement: FNV-1a of `name`, mod `num_shards`.
  /// Pure function of the name, so the same design always lands in the
  /// same shard regardless of arrival order or corpus history.
  [[nodiscard]] static std::size_t placement(std::string_view name,
                                             std::size_t num_shards);

  /// Append one design's embedding. Returns its global index (insertion
  /// order, dense after compact()). Safe against concurrent adds and
  /// reads: global ids are assigned in index-lock acquisition order (the
  /// admission ticket), and only the placed shard's stripe is taken
  /// exclusively.
  std::size_t add(std::string name, const tensor::Matrix& embedding) override;

  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t dim() const override;
  [[nodiscard]] const std::string& name(std::size_t i) const override;
  [[nodiscard]] const ScorerOptions& options() const { return options_; }

  /// Zero-copy view of the row behind global index `i` (length dim()).
  /// Invalidated by compact(), and by add() into the same shard — like a
  /// vector iterator.
  [[nodiscard]] std::span<const float> row(std::size_t i) const;

  /// Tombstone global row `i` (skipped by screening and top_k, erased by
  /// the next compact; row(i) stays addressable until then).
  void remove(std::size_t i) override;
  [[nodiscard]] bool live(std::size_t i) const override;
  [[nodiscard]] std::size_t live_count() const override;

  /// Compact every shard and renumber the global index space densely in
  /// insertion order. Returns result[old_global] = new_global or
  /// kNoIndex — the same mapping values for any shard count. Rows below
  /// the lowest removed global keep their index and are not rewritten,
  /// so the pass costs the rows from there on. Takes the global epoch:
  /// every in-flight reader and admitter completes first, so no caller
  /// ever observes a half-remapped index space.
  std::vector<std::size_t> compact() override;

  // ---- Shard introspection ----------------------------------------------
  [[nodiscard]] std::size_t num_shards() const override { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(std::size_t i) const override;
  [[nodiscard]] std::size_t shard_live_count(std::size_t s) const override;
  [[nodiscard]] std::size_t shard_budget() const override { return shard_budget_; }

  // ---- Scoring (bit-identical for any shard count × worker count) ------
  /// Verdict-shaped screening: for every row with global index ≥
  /// `first_new`, the flagged matches (similarity > delta) and the best
  /// match among *live* rows with global index < first_new, every
  /// similarity the exact cosine_cell value. Shards fan out over the
  /// worker pool (screen_shard); the per-shard bests merge under
  /// (similarity desc, global index asc), so the winner is the first
  /// maximum in global order. N snapshots at entry; rows admitted
  /// concurrently are not screened.
  [[nodiscard]] std::vector<ScreenRow> screen_new_rows(
      std::size_t first_new, float delta) const override;

  /// The k live entries most similar to global row `i` (i itself and
  /// removed rows excluded), descending similarity with ascending-index
  /// tie-break. Each shard returns its top-min(k) prefix (top_k_shard);
  /// the merge comparator is a total order (no two candidates share a
  /// global index), so the merged result is independent of shard count,
  /// worker count, and merge arrival order. Candidates admitted
  /// concurrently (global id past the entry snapshot) are excluded.
  [[nodiscard]] std::vector<PairScore> top_k(std::size_t i,
                                             std::size_t k) const override;

  // ---- Persistence (snapshot directory: manifest + one file per shard) --
  /// Write the corpus to directory `dir` (created if absent): one
  /// binary shard file per shard plus a text manifest recording the
  /// shard count, the placement scheme, the global index order, and
  /// `model_fingerprint` (the embedder that produced these rows — see
  /// gnn::model_fingerprint). Takes the global epoch exclusively, so a
  /// snapshot is always a fully-admitted, fully-compacted-or-not state,
  /// never a half-applied one. Throws SnapshotIoError when files cannot
  /// be written.
  void save(const std::string& dir, std::string_view model_fingerprint) const override;

  /// Replace this corpus's contents with a snapshot written by save().
  /// Adopts the snapshot's shard count and dim; keeps the configured
  /// options() and shard_budget(). With a non-empty
  /// `expected_fingerprint`, a snapshot recorded against a different
  /// embedder is rejected (SnapshotFingerprintError). All parsing and
  /// validation happens before the corpus is touched, so on any typed
  /// SnapshotError the in-memory state is unchanged. Not safe
  /// concurrently with admissions (callers quiesce first — the audit
  /// layer runs it as a serialized commit).
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
  /// ones. Safe from concurrent consumers (lazy spawn is guarded;
  /// concurrent batches serialize inside ThreadPool::parallel_for).
  void fan_out(std::size_t count,
               const std::function<void(std::size_t)>& fn) const override;

  /// A fresh single-shard ShardedCorpus restored from `dir` (it adopts
  /// the snapshot's shard count and dim during restore(); options and
  /// shard budget carry over from this corpus). The CorpusBackend load
  /// seam — every typed SnapshotError propagates with nothing swapped.
  [[nodiscard]] std::unique_ptr<CorpusBackend> restored(
      const std::string& dir,
      std::string_view expected_fingerprint) const override;

 private:
  /// RAII shared hold of *every* stripe, ascending shard id — the
  /// whole-corpus read lock of the scanning paths. A dynamic lock set
  /// is inexpressible in the capability analysis (hence the _unchecked
  /// acquisitions); the runtime lock-order validator still checks the
  /// ascending stripe ranks on every acquisition.
  class StripeGuard {
   public:
    explicit StripeGuard(
        const std::vector<std::unique_ptr<util::SharedMutex>>& stripes) {
      locked_.reserve(stripes.size());
      for (const std::unique_ptr<util::SharedMutex>& s : stripes) {
        s->lock_shared_unchecked();
        locked_.push_back(s.get());
      }
    }
    ~StripeGuard() {
      for (auto it = locked_.rbegin(); it != locked_.rend(); ++it) {
        (*it)->unlock_shared_unchecked();
      }
    }
    StripeGuard(const StripeGuard&) = delete;
    StripeGuard& operator=(const StripeGuard&) = delete;

   private:
    std::vector<util::SharedMutex*> locked_;
  };

  /// Take every shard stripe shared, ascending — the whole-corpus read
  /// lock used by the scanning paths (consistent order with admitters,
  /// which take index_mu_ then one stripe, so no deadlock).
  [[nodiscard]] StripeGuard lock_all_stripes_shared() const;

  /// row() without locks — callers hold the stripes they touch.
  [[nodiscard]] std::span<const float> row_nolock(const EntryRef& e) const {
    return shards_[e.shard].row(e.local);
  }

  ScorerOptions options_;
  std::size_t shard_budget_ = 0;

  /// Global epoch: shared by every operation, exclusive by compact().
  mutable util::SharedMutex epoch_mu_{util::lock_rank::kEpoch};
  /// Guards the global index space (entries_, live_count_, dim_):
  /// shared by readers, exclusive (briefly) by add/remove. Acquisition
  /// order of the exclusive lock is the deterministic admission ticket.
  mutable util::SharedMutex index_mu_{util::lock_rank::kIndex};
  /// One reader/writer stripe per shard, guarding that shard's store
  /// and its local→global table. Allocated once (SharedMutex is
  /// immovable); never resized after construction. Ranked ascending by
  /// shard id (lock_rank::stripe), so the validator enforces the
  /// documented ascending acquisition order.
  mutable std::vector<std::unique_ptr<util::SharedMutex>> stripes_;
  /// Guards the lazy spawn of pool_ (concurrent consumers may race the
  /// first fan_out).
  mutable util::Mutex pool_mu_{util::lock_rank::kPoolSpawn};

  std::size_t dim_ GNN4IP_GUARDED_BY(index_mu_) = 0;
  std::size_t live_count_ GNN4IP_GUARDED_BY(index_mu_) = 0;
  /// Owned workers for explicit num_threads > 1, spawned on first
  /// fan_out (0 defers to ThreadPool::shared(), which needs no owner).
  mutable std::unique_ptr<util::ThreadPool> pool_ GNN4IP_GUARDED_BY(pool_mu_);
  /// shards_ and globals_ are guarded by the *stripes*: shard s's store
  /// and its local→global table are written only under stripe s
  /// exclusive (or the epoch exclusive, which quiesces every stripe
  /// holder) and read under stripe s shared. A per-element dynamic
  /// guard is inexpressible in the capability analysis, so these stay
  /// unannotated — the stripe ranks keep the runtime validator's
  /// coverage.
  std::vector<EmbeddingStore> shards_;
  std::vector<EntryRef> entries_
      GNN4IP_GUARDED_BY(index_mu_);  // global index -> (shard, local)
  // Per shard: local index -> global index (appended under the shard's
  // stripe, renumbered by compact()). Stripe-guarded like shards_
  // (above).
  std::vector<std::vector<std::size_t>> globals_;
};

}  // namespace gnn4ip::core
