#include "dfg/trim.h"

#include <algorithm>
#include <vector>

#include "dfg/node_kind.h"
#include "graph/algorithms.h"

namespace gnn4ip::dfg {

void trim(graph::Digraph& g) {
  using graph::NodeId;

  // Steps 1 and 2 as one mask: constants with no predecessor, then every
  // node left with no edge to or from a node step 1 kept.
  const std::size_t n = g.num_nodes();
  std::vector<bool> dropped(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    dropped[v] = g.node(id).kind == static_cast<int>(NodeKind::kConstant) &&
                 g.in_degree(id) == 0;
  }
  const auto kept = [&dropped](NodeId u) {
    return !dropped[static_cast<std::size_t>(u)];
  };
  std::vector<NodeId> gone;
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    const auto out = g.out_neighbors(id);
    const auto in = g.in_neighbors(id);
    if (dropped[v] || (std::none_of(out.begin(), out.end(), kept) &&
                       std::none_of(in.begin(), in.end(), kept))) {
      gone.push_back(id);
    }
  }
  if (!gone.empty()) g.remove_nodes(gone);
  if (g.num_nodes() == 0) return;

  const std::vector<int> component = graph::weakly_connected_components(g);
  const int num_components =
      1 + *std::max_element(component.begin(), component.end());
  if (num_components == 1) return;
  std::vector<bool> keep_component(static_cast<std::size_t>(num_components),
                                   false);
  std::vector<int> component_size(static_cast<std::size_t>(num_components), 0);
  bool any_output = false;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto c = static_cast<std::size_t>(component[v]);
    ++component_size[c];
    if (g.node(static_cast<NodeId>(v)).kind ==
        static_cast<int>(NodeKind::kOutput)) {
      keep_component[c] = true;
      any_output = true;
    }
  }
  if (!any_output) {
    // Pathological design without outputs: keep the largest component.
    const std::size_t biggest = static_cast<std::size_t>(
        std::max_element(component_size.begin(), component_size.end()) -
        component_size.begin());
    keep_component[biggest] = true;
  }
  std::vector<NodeId> to_remove;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (!keep_component[static_cast<std::size_t>(component[v])]) {
      to_remove.push_back(static_cast<NodeId>(v));
    }
  }
  if (!to_remove.empty()) g.remove_nodes(to_remove);
}

}  // namespace gnn4ip::dfg
