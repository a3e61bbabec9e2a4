// Conversion of a DFG into GNN tensors: one-hot node features X⁽⁰⁾
// (node kind vocabulary, paper §III-C "directly converting the node's
// name to its corresponding one-hot vector") and the symmetric-normalized
// adjacency D̂^{-1/2} Â D̂^{-1/2} with Â = A + Aᵀ + I of Eq. 5.
//
// The normalized operator is built once at featurize time; every GCN
// layer and the SAGPool scorer of a forward pass multiply by it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace gnn4ip::gnn {

/// Tensors for one graph. `edges` is the deduplicated, self-loop-free
/// directed edge list Â was built from.
struct GraphTensors {
  tensor::Matrix x;  // N × kNodeKindCount
  std::shared_ptr<const tensor::Csr> adj;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::size_t num_nodes = 0;
};

/// Build tensors from a DFG whose node kinds are dfg::NodeKind values.
/// Edges propagate both ways: GCN's spectral derivation assumes a
/// symmetric adjacency.
[[nodiscard]] GraphTensors featurize(const graph::Digraph& g);

}  // namespace gnn4ip::gnn
