// core::global_index — the global index space of a sharded corpus.
//
// ShardedCorpus (in-process stores) and dist::DistCorpus (a mirror of
// remote stores) number their rows the same way: a global index in
// insertion order, an (shard, local) address per global index, and per
// shard the ascending list of its rows' globals. Both keep that space
// in the two vectors below and renumber it through the one
// compact_global_index, so the mapping a compaction reports is the same
// for either implementation and any shard count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace gnn4ip::core {

/// Where a global index lives: which shard, and which local row.
struct EntryRef {
  std::size_t shard = 0;
  std::size_t local = 0;
};

/// Rows of one shard admitted before global index `end`: an ascending
/// prefix of its local order (`globals` lists the shard's globals by
/// local row, ascending).
[[nodiscard]] std::size_t prefix_below(const std::vector<std::size_t>& globals,
                                       std::size_t end);

/// Drop the removed rows from the index space and renumber the
/// survivors densely in insertion order, per shard as well as globally
/// — the numbering each shard's EmbeddingStore::compact gives its own
/// rows. `entries[g]` addresses global g and `globals[s]` lists shard
/// s's globals by local row; `live(g, entries[g])` tells whether row g
/// survives. Every row below `first` must be live: those keep their
/// index and are never visited, so the rewrite (in place, capacity
/// kept) costs the rows from `first` on. Returns the full old→new
/// mapping, kNoIndex for removed rows.
std::vector<std::size_t> compact_global_index(
    std::vector<EntryRef>& entries,
    std::vector<std::vector<std::size_t>>& globals, std::size_t first,
    const std::function<bool(std::size_t, const EntryRef&)>& live);

}  // namespace gnn4ip::core
