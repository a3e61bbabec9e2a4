#include "gnn/featurize.h"

#include <algorithm>
#include <cmath>

#include "dfg/node_kind.h"
#include "util/contract.h"

namespace gnn4ip::gnn {
namespace {

/// Â = A + Aᵀ + I, normalized D̂^{-1/2} Â D̂^{-1/2}, built row by row:
/// row v holds v, its successors and its predecessors, sorted and
/// deduplicated, so its length is v's degree in Â.
std::shared_ptr<const tensor::Csr> normalized_adjacency(
    const graph::Digraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<std::size_t> cols;
  cols.reserve(n + 2 * g.num_edges());
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    const std::size_t begin = cols.size();
    cols.push_back(v);
    for (const graph::NodeId u : g.out_neighbors(id)) {
      cols.push_back(static_cast<std::size_t>(u));
    }
    for (const graph::NodeId u : g.in_neighbors(id)) {
      cols.push_back(static_cast<std::size_t>(u));
    }
    const auto row = cols.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(row, cols.end());
    cols.erase(std::unique(row, cols.end()), cols.end());
    offsets[v + 1] = cols.size();
  }
  std::vector<float> inv_sqrt(n);
  for (std::size_t v = 0; v < n; ++v) {
    inv_sqrt[v] =
        1.0F / std::sqrt(static_cast<float>(offsets[v + 1] - offsets[v]));
  }
  std::vector<float> values(cols.size());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      values[k] = inv_sqrt[r] * inv_sqrt[cols[k]];
    }
  }
  return std::make_shared<tensor::Csr>(n, n, std::move(offsets),
                                       std::move(cols), std::move(values));
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
  t.adj = normalized_adjacency(g);
  return t;
}

}  // namespace gnn4ip::gnn
