#include "core/global_index.h"

#include <algorithm>
#include <numeric>

#include "core/corpus_backend.h"
#include "util/contract.h"

namespace gnn4ip::core {

std::size_t prefix_below(const std::vector<std::size_t>& globals,
                         std::size_t end) {
  return static_cast<std::size_t>(
      std::lower_bound(globals.begin(), globals.end(), end) - globals.begin());
}

std::vector<std::size_t> compact_global_index(
    std::vector<EntryRef>& entries,
    std::vector<std::vector<std::size_t>>& globals, std::size_t first,
    const std::function<bool(std::size_t, const EntryRef&)>& live) {
  const std::size_t n = entries.size();
  first = std::min(first, n);
  std::vector<std::size_t> mapping(n);
  std::iota(mapping.begin(),
            mapping.begin() + static_cast<std::ptrdiff_t>(first),
            std::size_t{0});
  // Each shard's rows below `first` are its first locals and stay put;
  // its survivors from `first` on take the next locals in order.
  std::vector<std::size_t> next_local(globals.size());
  for (std::size_t s = 0; s < globals.size(); ++s) {
    next_local[s] = prefix_below(globals[s], first);
  }
  std::size_t next = first;
  for (std::size_t g = first; g < n; ++g) {
    // Writes land at next ≤ g and at locals ≤ this row's own, so entry g
    // is read before anything overwrites it.
    const EntryRef e = entries[g];
    if (!live(g, e)) {
      mapping[g] = CorpusBackend::kNoIndex;
      continue;
    }
    const std::size_t local = next_local[e.shard]++;
    entries[next] = {e.shard, local};
    globals[e.shard][local] = next;
    mapping[g] = next++;
  }
  entries.resize(next);
  for (std::size_t s = 0; s < globals.size(); ++s) {
    GNN4IP_ENSURE(next_local[s] <= globals[s].size(),
                  "compact_global_index: shard table out of step");
    globals[s].resize(next_local[s]);
  }
  return mapping;
}

}  // namespace gnn4ip::core
