#include "graph/digraph.h"

#include <algorithm>

#include "util/contract.h"
#include "util/string_util.h"

namespace gnn4ip::graph {
namespace {

/// Group `edges` into CSR rows keyed by `row_of` (stable, so each row
/// keeps insertion order), then drop a repeated entry within a row,
/// keeping its first occurrence. `seen` is n scratch entries.
template <typename RowOf, typename ColOf>
void build_rows(std::size_t n, const std::vector<Edge>& edges, RowOf row_of,
                ColOf col_of, std::vector<std::size_t>& offsets,
                std::vector<NodeId>& ids, std::vector<NodeId>& seen) {
  offsets.assign(n + 1, 0);
  for (const Edge& e : edges) ++offsets[static_cast<std::size_t>(row_of(e)) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  ids.resize(edges.size());
  // offsets[r] serves as row r's fill cursor, then is shifted back.
  for (const Edge& e : edges) {
    ids[offsets[static_cast<std::size_t>(row_of(e))]++] = col_of(e);
  }
  for (std::size_t v = n; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
  std::fill(seen.begin(), seen.end(), kInvalidNode);
  std::size_t write = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t end = offsets[r + 1];
    for (std::size_t k = begin; k < end; ++k) {
      const auto col = static_cast<std::size_t>(ids[k]);
      if (seen[col] == static_cast<NodeId>(r)) continue;
      seen[col] = static_cast<NodeId>(r);
      ids[write++] = ids[k];
    }
    begin = end;
    offsets[r + 1] = write;
  }
  ids.resize(write);
}

}  // namespace

Digraph::Digraph(std::vector<Node> nodes, const std::vector<Edge>& edges)
    : nodes_(std::move(nodes)) {
  for (const auto& [src, dst] : edges) {
    check_id(src);
    check_id(dst);
  }
  const std::size_t n = nodes_.size();
  std::vector<NodeId> seen(n);
  build_rows(n, edges, [](const Edge& e) { return e.first; },
             [](const Edge& e) { return e.second; }, out_offsets_, out_ids_,
             seen);
  build_rows(n, edges, [](const Edge& e) { return e.second; },
             [](const Edge& e) { return e.first; }, in_offsets_, in_ids_,
             seen);
}

void Digraph::check_id(NodeId id) const {
  GNN4IP_ENSURE(valid(id),
                util::format("node id %d out of range [0, %zu)", id,
                             nodes_.size()));
}

bool Digraph::has_edge(NodeId src, NodeId dst) const {
  check_id(dst);
  const auto row = out_neighbors(src);
  return std::find(row.begin(), row.end(), dst) != row.end();
}

const Node& Digraph::node(NodeId id) const {
  check_id(id);
  return nodes_[static_cast<std::size_t>(id)];
}

std::span<const NodeId> Digraph::out_neighbors(NodeId id) const {
  check_id(id);
  const auto v = static_cast<std::size_t>(id);
  return {out_ids_.data() + out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]};
}

std::span<const NodeId> Digraph::in_neighbors(NodeId id) const {
  check_id(id);
  const auto v = static_cast<std::size_t>(id);
  return {in_ids_.data() + in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]};
}

std::vector<Edge> Digraph::edges() const {
  std::vector<Edge> result;
  result.reserve(out_ids_.size());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    for (std::size_t k = out_offsets_[s]; k < out_offsets_[s + 1]; ++k) {
      result.emplace_back(static_cast<NodeId>(s), out_ids_[k]);
    }
  }
  return result;
}

std::vector<NodeId> Digraph::remove_nodes(const std::vector<NodeId>& to_remove) {
  std::vector<NodeId> remap(nodes_.size(), 0);
  for (NodeId id : to_remove) {
    check_id(id);
    remap[static_cast<std::size_t>(id)] = kInvalidNode;
  }
  NodeId next = 0;
  for (NodeId& r : remap) {
    if (r != kInvalidNode) r = next++;
  }
  std::vector<Node> kept;
  kept.reserve(static_cast<std::size_t>(next));
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    if (remap[v] != kInvalidNode) kept.push_back(std::move(nodes_[v]));
  }
  // Edges by source, so the constructor lists predecessors in ascending
  // source order.
  std::vector<Edge> edges;
  edges.reserve(out_ids_.size());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (remap[s] == kInvalidNode) continue;
    for (std::size_t k = out_offsets_[s]; k < out_offsets_[s + 1]; ++k) {
      const NodeId d = remap[static_cast<std::size_t>(out_ids_[k])];
      if (d != kInvalidNode) edges.emplace_back(remap[s], d);
    }
  }
  *this = Digraph(std::move(kept), edges);
  return remap;
}

Digraph Digraph::induced_subgraph(const std::vector<NodeId>& keep) const {
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);
  std::vector<Node> nodes;
  nodes.reserve(keep.size());
  for (std::size_t pos = 0; pos < keep.size(); ++pos) {
    const NodeId id = keep[pos];
    check_id(id);
    GNN4IP_ENSURE(remap[static_cast<std::size_t>(id)] == kInvalidNode,
                  "duplicate node in induced_subgraph keep list");
    remap[static_cast<std::size_t>(id)] = static_cast<NodeId>(pos);
    nodes.push_back(nodes_[static_cast<std::size_t>(id)]);
  }
  std::vector<Edge> edges;
  for (NodeId src : keep) {
    for (NodeId dst : out_neighbors(src)) {
      const NodeId new_dst = remap[static_cast<std::size_t>(dst)];
      if (new_dst != kInvalidNode) {
        edges.emplace_back(remap[static_cast<std::size_t>(src)], new_dst);
      }
    }
  }
  return Digraph(std::move(nodes), edges);
}

NodeId Digraph::find_by_name(std::string_view name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<NodeId>(i);
  }
  return kInvalidNode;
}

}  // namespace gnn4ip::graph
