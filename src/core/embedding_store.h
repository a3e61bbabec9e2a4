// Tiled embedding-row storage — the resident half of a corpus.
//
// One design = one D-float row plus its name. The store keeps rows in
// tiles of kTileRows (8) rows laid out dimension-major: element (row j,
// dim k) of tile t sits at t·8·D + k·8 + j, so one sweep step reads a
// whole tile and cosine_tile_dots folds its eight rows side by side
// (core/cosine_kernels.h). Lanes past size() hold 0. A row is not
// contiguous, so row() copies it out. The store stays bounded through
// the two-phase removal API: remove(i) tombstones a row (cheap,
// batchable), compact() erases every tombstoned row in one pass and
// reports the old→new index remapping.
//
// The store holds no scoring logic and no locks — it is the shard
// unit, with a standard container's contract: const members may
// overlap, and a mutation excludes every other call. Its owner
// provides that: ShardedCorpus passes its own contract down (in the
// audit stack, AuditService's state lock), and dist::ShardServer
// serves one connection at a time. core/shard_sweep.h scores probe
// rows against one store; ShardedCorpus owns K stores and merges
// across them, and dist::ShardServer serves one store over the wire.
//
// The store is also the unit of persistence: save()/load() round-trip
// the rows, names, and tombstones through the binary shard format of
// core/snapshot_format.h (byte-level spec in docs/FORMATS.md). The file
// is row-major whatever the memory layout — save() writes rows back in
// order and load() transposes them into tiles — and floats are written
// as their exact bytes, so a loaded store scores bit-identically to the
// one that was saved.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/cosine_kernels.h"
#include "tensor/matrix.h"
#include "util/contract.h"

namespace gnn4ip::core {

struct ScreenMatch;
struct ScreenRow;

class EmbeddingStore {
 public:
  /// "No such row": returned by compact() for removed rows.
  static constexpr std::size_t kNoIndex =
      std::numeric_limits<std::size_t>::max();

  /// Append one design's embedding (a 1×D matrix, or any shape viewed as
  /// a flat D-vector; D is fixed by the first add). Returns its index.
  std::size_t add(std::string name, const tensor::Matrix& embedding);

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] bool empty() const { return names_.empty(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] const std::string& name(std::size_t i) const;

  /// A copy of row `i` of the store (length dim()).
  [[nodiscard]] std::vector<float> row(std::size_t i) const;

  /// Tile `t`: rows [t·kTileRows, (t+1)·kTileRows), kTileRows·dim()
  /// floats, dimension-major (see the file comment). Covers every
  /// t < ceil(size() / kTileRows). Invalidated by add/compact, like a
  /// vector iterator.
  [[nodiscard]] std::span<const float> tile(std::size_t t) const {
    GNN4IP_ENSURE(t * kTileRows < size(), "EmbeddingStore: tile out of range");
    return std::span<const float>(data_).subspan(t * kTileRows * dim_,
                                                 kTileRows * dim_);
  }

  /// fl(row_norm(row(i))) — cached at add time with the exact kernel
  /// arithmetic, so norm(i) is bit-identical to recomputing it.
  [[nodiscard]] float norm(std::size_t i) const;

  /// Tombstone row `i`: it keeps its index (and name(i)) — and its data
  /// stays addressable through row() and tile() — but it is skipped by
  /// live-row consumers and erased by the next compact().
  void remove(std::size_t i);

  /// True while row `i` has not been removed.
  [[nodiscard]] bool live(std::size_t i) const;

  /// Rows not yet removed.
  [[nodiscard]] std::size_t live_count() const { return live_count_; }

  /// Lowest removed row not yet erased by compact(); kNoIndex when
  /// every row is live. Tracked through remove() and load().
  [[nodiscard]] std::size_t first_removed() const { return first_removed_; }

  /// Erase every removed row in one pass over the rows from
  /// first_removed() on — the rows below it keep their index. Returns the
  /// index remapping: result[old_index] is the row's new index, or
  /// kNoIndex if it was removed. Identity mapping when nothing is
  /// removed.
  std::vector<std::size_t> compact();

  // ---- Persistence (binary shard format v1) -----------------------------
  /// Write the store — header, exact float bytes, live flags, name
  /// table — to `os` (caller opens the stream in binary mode).
  void save(std::ostream& os) const;

  /// Reconstruct a store saved by save(). With `expected_dim` > 0 the
  /// on-disk dimensionality must match it. Throws the typed errors of
  /// snapshot_format.h: SnapshotMagicError, SnapshotVersionError,
  /// SnapshotByteOrderError, SnapshotDimError, SnapshotTruncatedError,
  /// SnapshotManifestError (header/payload disagreement). A legacy QNT8
  /// trailer written by earlier builds is skipped (docs/FORMATS.md).
  [[nodiscard]] static EmbeddingStore load(std::istream& is,
                                           std::size_t expected_dim = 0);

 private:
  // The sweeps read norms_ and dead_ directly: they check their limit
  // against size() once instead of once per row.
  friend std::vector<ScreenRow> screen_shard(
      const EmbeddingStore& store, std::size_t limit,
      std::span<const std::span<const float>> probes, float delta);
  friend std::vector<ScreenMatch> top_k_shard(const EmbeddingStore& store,
                                              std::size_t limit,
                                              std::span<const float> probe,
                                              std::size_t k,
                                              std::size_t exclude);

  /// Offset in data_ of element (row i, dim k).
  [[nodiscard]] std::size_t at(std::size_t i, std::size_t k) const {
    return (i / kTileRows) * kTileRows * dim_ + k * kTileRows + i % kTileRows;
  }

  std::size_t dim_ = 0;
  std::vector<std::string> names_;
  std::vector<float> data_;   // ceil(N/kTileRows) dimension-major tiles
  std::vector<float> norms_;  // fl(row_norm) per row — exact denominators
  std::vector<bool> dead_;    // tombstones; erased by compact()
  std::size_t live_count_ = 0;
  std::size_t first_removed_ = kNoIndex;
};

}  // namespace gnn4ip::core
