// Directed graph with typed, named nodes.
//
// This is the common substrate below the DFG pipeline and the GNN: the
// DFG extractor builds a Digraph whose node kinds come from the DFG
// vocabulary, and the GNN featurizes node kinds into one-hot rows and the
// edge list into a normalized sparse adjacency.
//
// Mutations (adding nodes/edges, removing node subsets) are supported so
// the trim pass can rewrite graphs in place; `remove_nodes()` renumbers
// the surviving node ids densely.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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

/// Mutable directed multigraph-free graph (parallel edges are collapsed).
class Digraph {
 public:
  Digraph() = default;

  /// Append a node; returns its id.
  NodeId add_node(std::string name, int kind);

  /// Add edge src -> dst. Duplicate edges are ignored. Self-loops allowed
  /// only when `allow_self_loop` (DFGs for sequential logic contain
  /// register feedback loops).
  void add_edge(NodeId src, NodeId dst, bool allow_self_loop = true);

  [[nodiscard]] bool has_edge(NodeId src, NodeId dst) const;

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);

  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId id) const;
  [[nodiscard]] std::span<const NodeId> in_neighbors(NodeId id) const;

  [[nodiscard]] std::size_t out_degree(NodeId id) const {
    return out_neighbors(id).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId id) const {
    return in_neighbors(id).size();
  }

  /// All edges as (src, dst) pairs, ordered by src then insertion.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

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
  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::size_t num_edges_ = 0;
};

}  // namespace gnn4ip::graph
