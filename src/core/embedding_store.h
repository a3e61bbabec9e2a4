// Contiguous embedding-row storage — the resident half of a corpus.
//
// One design = one D-float row plus its name. The store keeps rows in a
// single row-major buffer (cache-friendly for the shard sweeps, and
// zero-copy viewable through row()), and stays bounded through
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
// core/snapshot_format.h (byte-level spec in docs/FORMATS.md). Floats
// are written as their exact bytes, so a loaded store scores
// bit-identically to the one that was saved.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace gnn4ip::core {

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

  /// Zero-copy view of row `i` of the store (length dim()).
  /// Invalidated by add/compact, like a vector iterator.
  [[nodiscard]] std::span<const float> row(std::size_t i) const;

  /// fl(row_norm(row(i))) — cached at add time with the exact kernel
  /// arithmetic, so norm(i) is bit-identical to recomputing it.
  [[nodiscard]] float norm(std::size_t i) const;

  /// Tombstone row `i`: it keeps its index (and name(i)) — and its data
  /// stays positionally addressable through row() — but it is skipped by
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
  std::size_t dim_ = 0;
  std::vector<std::string> names_;
  std::vector<float> data_;   // row-major N×dim_
  std::vector<float> norms_;  // fl(row_norm) per row — exact denominators
  std::vector<bool> dead_;    // tombstones; erased by compact()
  std::size_t live_count_ = 0;
  std::size_t first_removed_ = kNoIndex;
};

}  // namespace gnn4ip::core
