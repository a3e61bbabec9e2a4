#include "gnn/featurize.h"

#include <algorithm>
#include <cmath>

#include "dfg/node_kind.h"
#include "util/contract.h"

namespace gnn4ip::gnn {

std::shared_ptr<const tensor::Csr> PooledAdjCache::find(
    const std::vector<std::size_t>& kept) const {
  util::MutexLock lock(mu_);
  const auto it = entries_.find(kept);
  return it == entries_.end() ? nullptr : it->second;
}

void PooledAdjCache::insert(const std::vector<std::size_t>& kept,
                            std::shared_ptr<const tensor::Csr> adj) {
  util::MutexLock lock(mu_);
  if (entries_.size() >= kMaxEntries &&
      entries_.find(kept) == entries_.end()) {
    return;  // full: keep the resident (typically inference-stable) keys
  }
  entries_[kept] = std::move(adj);
}

std::size_t PooledAdjCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

std::shared_ptr<const tensor::Csr> normalized_adjacency(
    std::size_t num_nodes,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    bool symmetrize) {
  GNN4IP_ENSURE(num_nodes > 0, "normalized_adjacency on empty graph");
  // Structural entries of Â: self-loops + edges (+ reverses), then
  // sort/unique — cheaper than a node-per-entry ordered set on the
  // per-forward pooled-subgraph path.
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  entries.reserve(num_nodes + edges.size() * (symmetrize ? 2 : 1));
  for (std::size_t v = 0; v < num_nodes; ++v) entries.emplace_back(v, v);
  for (const auto& [src, dst] : edges) {
    GNN4IP_ENSURE(src < num_nodes && dst < num_nodes,
                  "edge endpoint out of range");
    entries.emplace_back(src, dst);
    if (symmetrize) entries.emplace_back(dst, src);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  // Degrees of Â.
  std::vector<float> degree(num_nodes, 0.0F);
  for (const auto& [r, c] : entries) degree[r] += 1.0F;
  std::vector<float> inv_sqrt(num_nodes);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    inv_sqrt[v] = 1.0F / std::sqrt(degree[v]);
  }
  std::vector<tensor::Triplet> triplets;
  triplets.reserve(entries.size());
  for (const auto& [r, c] : entries) {
    triplets.push_back({r, c, inv_sqrt[r] * inv_sqrt[c]});
  }
  return std::make_shared<tensor::Csr>(
      tensor::Csr::from_triplets(num_nodes, num_nodes, std::move(triplets)));
}

GraphTensors featurize(const graph::Digraph& g,
                       const FeaturizeOptions& options) {
  GNN4IP_ENSURE(g.num_nodes() > 0, "featurize on empty graph");
  GraphTensors t;
  t.num_nodes = g.num_nodes();
  t.symmetrize = options.symmetrize;
  t.x = tensor::Matrix(g.num_nodes(), dfg::kNodeKindCount);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const int kind = g.node(static_cast<graph::NodeId>(v)).kind;
    GNN4IP_ENSURE(kind >= 0 && kind < dfg::kNodeKindCount,
                  "node kind outside DFG vocabulary");
    t.x.at(v, static_cast<std::size_t>(kind)) = 1.0F;
  }
  t.edges.reserve(g.num_edges());
  for (const auto& [src, dst] : g.edges()) {
    if (src == dst) continue;  // self-loops are re-added by normalization
    t.edges.emplace_back(src, dst);
  }
  std::sort(t.edges.begin(), t.edges.end());
  t.edges.erase(std::unique(t.edges.begin(), t.edges.end()), t.edges.end());
  t.adj = normalized_adjacency(t.num_nodes, t.edges, options.symmetrize);
  t.pooled_cache = std::make_shared<PooledAdjCache>();
  return t;
}

}  // namespace gnn4ip::gnn
