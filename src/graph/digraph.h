// Directed graph with typed, named nodes.
//
// This is the common substrate below the DFG pipeline and the GNN: the
// DFG extractor builds a Digraph whose node kinds come from the DFG
// vocabulary, and the GNN featurizes node kinds into one-hot rows and the
// edge list into a normalized sparse adjacency.
//
// Storage is two CSR arrays, as in tensor::Csr: successors and
// predecessors, each n+1 offsets into one flat id array. A graph is made
// in one step, by the constructor, from its node list and its edge list
// in insertion order. The ordering contract:
//   - a repeated (src, dst) keeps its first occurrence; self-loops stay;
//   - out_neighbors(v) and edges() list edges by source, then insertion;
//   - in_neighbors(v) lists predecessors in edge insertion order, and,
//     after remove_nodes(), in ascending source order.
// remove_nodes() rebuilds the graph through the constructor from the
// surviving nodes, renumbered densely in their relative order, and
// their edges listed by source.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gnn4ip::graph {

using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;

/// One vertex: a display name plus an opaque kind id whose meaning is
/// defined by the producing layer (for DFGs: dfg::NodeKind).
struct Node {
  std::string name;
  int kind = 0;
};

/// A directed edge (src, dst).
using Edge = std::pair<NodeId, NodeId>;

/// Directed graph without parallel edges.
class Digraph {
 public:
  Digraph() = default;

  /// Nodes get ids in list order. Throws util::ContractViolation when an
  /// edge names an id outside [0, nodes.size()).
  Digraph(std::vector<Node> nodes, const std::vector<Edge>& edges);

  [[nodiscard]] bool has_edge(NodeId src, NodeId dst) const;

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return out_ids_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const;

  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId id) const;
  [[nodiscard]] std::span<const NodeId> in_neighbors(NodeId id) const;

  [[nodiscard]] std::size_t out_degree(NodeId id) const {
    return out_neighbors(id).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId id) const {
    return in_neighbors(id).size();
  }

  /// All edges as (src, dst) pairs, ordered by src then insertion.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Remove the given nodes (and incident edges), then renumber ids
  /// densely preserving relative order. Returns old-id -> new-id map
  /// (kInvalidNode for removed entries).
  std::vector<NodeId> remove_nodes(const std::vector<NodeId>& to_remove);

  /// Subgraph induced on `keep` (order preserved); node ids in the result
  /// are positions within `keep`.
  [[nodiscard]] Digraph induced_subgraph(const std::vector<NodeId>& keep) const;

  /// Find first node with the given name, or kInvalidNode.
  [[nodiscard]] NodeId find_by_name(std::string_view name) const;

  /// Check id validity (debugging aid).
  [[nodiscard]] bool valid(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < nodes_.size();
  }

 private:
  void check_id(NodeId id) const;

  std::vector<Node> nodes_;
  std::vector<std::size_t> out_offsets_;
  std::vector<NodeId> out_ids_;
  std::vector<std::size_t> in_offsets_;
  std::vector<NodeId> in_ids_;
};

}  // namespace gnn4ip::graph
