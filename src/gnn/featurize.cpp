#include "gnn/featurize.h"

#include <algorithm>
#include <cmath>

#include "dfg/node_kind.h"
#include "util/contract.h"

namespace gnn4ip::gnn {
namespace {

/// Â = A + Aᵀ + I, normalized D̂^{-1/2} Â D̂^{-1/2}. `edges` are in range
/// (the Digraph checked them) and `num_nodes` > 0 (featurize checked it).
std::shared_ptr<const tensor::Csr> normalized_adjacency(
    std::size_t num_nodes,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  // Structural entries of Â: self-loops + edges + reverses, then
  // sort/unique — cheaper than a node-per-entry ordered set.
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  entries.reserve(num_nodes + edges.size() * 2);
  for (std::size_t v = 0; v < num_nodes; ++v) entries.emplace_back(v, v);
  for (const auto& [src, dst] : edges) {
    entries.emplace_back(src, dst);
    entries.emplace_back(dst, src);
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

}  // namespace

GraphTensors featurize(const graph::Digraph& g) {
  GNN4IP_ENSURE(g.num_nodes() > 0, "featurize on empty graph");
  GraphTensors t;
  t.num_nodes = g.num_nodes();
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
  t.adj = normalized_adjacency(t.num_nodes, t.edges);
  return t;
}

}  // namespace gnn4ip::gnn
