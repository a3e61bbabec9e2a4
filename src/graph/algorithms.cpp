#include "graph/algorithms.h"

#include <algorithm>
#include <deque>

#include "util/contract.h"

namespace gnn4ip::graph {

std::vector<int> weakly_connected_components(const Digraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<int> label(n, -1);
  int next_label = 0;
  // Each node is queued once over the whole walk, so one vector read
  // from `head` serves as the queue for every component.
  std::vector<NodeId> queue;
  queue.reserve(n);
  std::size_t head = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (label[start] != -1) continue;
    label[start] = next_label;
    queue.push_back(static_cast<NodeId>(start));
    while (head < queue.size()) {
      const NodeId v = queue[head++];
      auto visit = [&](NodeId u) {
        if (label[static_cast<std::size_t>(u)] == -1) {
          label[static_cast<std::size_t>(u)] = next_label;
          queue.push_back(u);
        }
      };
      for (NodeId u : g.out_neighbors(v)) visit(u);
      for (NodeId u : g.in_neighbors(v)) visit(u);
    }
    ++next_label;
  }
  return label;
}

int num_weak_components(const Digraph& g) {
  const auto labels = weakly_connected_components(g);
  return labels.empty() ? 0 : 1 + *std::max_element(labels.begin(), labels.end());
}

std::vector<bool> reachable(const Digraph& g, const std::vector<NodeId>& roots,
                            Direction dir) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::deque<NodeId> queue;
  for (NodeId r : roots) {
    GNN4IP_ENSURE(g.valid(r), "reachable: invalid root id");
    if (!seen[static_cast<std::size_t>(r)]) {
      seen[static_cast<std::size_t>(r)] = true;
      queue.push_back(r);
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    const auto next = dir == Direction::kForward ? g.out_neighbors(v)
                                                 : g.in_neighbors(v);
    for (NodeId u : next) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = true;
        queue.push_back(u);
      }
    }
  }
  return seen;
}

namespace {

enum class VisitState : std::uint8_t { kUnvisited, kInProgress, kDone };

bool dfs_cycle(const Digraph& g, NodeId v, std::vector<VisitState>& state,
               std::vector<NodeId>* order) {
  state[static_cast<std::size_t>(v)] = VisitState::kInProgress;
  for (NodeId u : g.out_neighbors(v)) {
    const auto s = state[static_cast<std::size_t>(u)];
    if (s == VisitState::kInProgress) return true;
    if (s == VisitState::kUnvisited && dfs_cycle(g, u, state, order)) {
      return true;
    }
  }
  state[static_cast<std::size_t>(v)] = VisitState::kDone;
  if (order != nullptr) order->push_back(v);
  return false;
}

}  // namespace

bool has_cycle(const Digraph& g) {
  std::vector<VisitState> state(g.num_nodes(), VisitState::kUnvisited);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (state[v] == VisitState::kUnvisited &&
        dfs_cycle(g, static_cast<NodeId>(v), state, nullptr)) {
      return true;
    }
  }
  return false;
}

std::vector<NodeId> topological_order(const Digraph& g) {
  std::vector<VisitState> state(g.num_nodes(), VisitState::kUnvisited);
  std::vector<NodeId> order;
  order.reserve(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (state[v] == VisitState::kUnvisited) {
      const bool cyclic = dfs_cycle(g, static_cast<NodeId>(v), state, &order);
      GNN4IP_ENSURE(!cyclic, "topological_order called on a cyclic graph");
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::uint64_t structural_hash(const Digraph& g, int rounds) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint64_t> color(n);
  for (std::size_t v = 0; v < n; ++v) {
    color[v] = mix(0x243F6A8885A308D3ULL,
                   static_cast<std::uint64_t>(g.node(static_cast<NodeId>(v)).kind));
  }
  std::vector<std::uint64_t> next(n);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      // Order-independent aggregation over neighbors: sum/xor of mixed
      // colors so the hash does not depend on adjacency list order.
      std::uint64_t in_acc = 0;
      std::uint64_t out_acc = 0;
      for (NodeId u : g.in_neighbors(static_cast<NodeId>(v))) {
        in_acc += mix(0x452821E638D01377ULL, color[static_cast<std::size_t>(u)]);
      }
      for (NodeId u : g.out_neighbors(static_cast<NodeId>(v))) {
        out_acc += mix(0x13198A2E03707344ULL, color[static_cast<std::size_t>(u)]);
      }
      next[v] = mix(mix(color[v], in_acc), out_acc);
    }
    color.swap(next);
  }
  // Order-independent final combine (sorted).
  std::sort(color.begin(), color.end());
  std::uint64_t h = mix(0xA4093822299F31D0ULL, static_cast<std::uint64_t>(n));
  for (std::uint64_t c : color) h = mix(h, c);
  return h;
}

std::vector<int> kind_histogram(const Digraph& g) {
  std::vector<int> hist;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const int k = g.node(static_cast<NodeId>(v)).kind;
    GNN4IP_ENSURE(k >= 0, "kind_histogram requires non-negative kinds");
    if (static_cast<std::size_t>(k) >= hist.size()) {
      hist.resize(static_cast<std::size_t>(k) + 1, 0);
    }
    ++hist[static_cast<std::size_t>(k)];
  }
  return hist;
}

}  // namespace gnn4ip::graph
