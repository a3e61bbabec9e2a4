// Digraph, algorithms, and serialization tests.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/serialize.h"
#include "util/contract.h"

namespace gnn4ip::graph {
namespace {

std::vector<Node> named(int n) {
  std::vector<Node> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back({"n" + std::to_string(i), i % 3});
  return nodes;
}

std::vector<Edge> chain_edges(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return edges;
}

Digraph chain(int n) { return Digraph(named(n), chain_edges(n)); }

std::vector<NodeId> ids(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

TEST(Digraph, ConstructorBuildsNodesAndEdges) {
  const Digraph g({{"a", 1}, {"b", 2}}, {{0, 1}});
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.node(1).name, "b");
  EXPECT_EQ(g.node(1).kind, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(Digraph, RepeatedEdgeKeepsFirstOccurrence) {
  const Digraph g(named(3), {{0, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(ids(g.out_neighbors(0)), (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(ids(g.in_neighbors(2)), (std::vector<NodeId>{0, 1}));
}

TEST(Digraph, SelfLoopsStay) {
  const Digraph g(named(2), {{0, 0}, {0, 1}, {0, 0}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_EQ(ids(g.in_neighbors(0)), (std::vector<NodeId>{0}));
}

TEST(Digraph, EdgesBySourceThenInsertion) {
  const Digraph g(named(4), {{2, 0}, {0, 3}, {2, 1}, {0, 1}, {1, 3}});
  EXPECT_EQ(g.edges(),
            (std::vector<Edge>{{0, 3}, {0, 1}, {1, 3}, {2, 0}, {2, 1}}));
}

TEST(Digraph, InNeighborsInInsertionOrder) {
  const Digraph g(named(4), {{2, 3}, {0, 3}, {1, 3}, {2, 0}});
  EXPECT_EQ(ids(g.in_neighbors(3)), (std::vector<NodeId>{2, 0, 1}));
}

TEST(Digraph, InNeighborsAscendingAfterRemoveNodes) {
  Digraph g(named(5), {{3, 4}, {0, 4}, {2, 4}, {3, 0}});
  (void)g.remove_nodes({1});
  // Old 4 is new 3; its sources old {3, 0, 2} are new {2, 0, 1}.
  EXPECT_EQ(ids(g.in_neighbors(3)), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(g.edges(), (std::vector<Edge>{{0, 3}, {1, 3}, {2, 3}, {2, 0}}));
}

TEST(Digraph, InvalidIdThrows) {
  const Digraph g(named(1), {});
  EXPECT_THROW((void)g.node(5), util::ContractViolation);
  EXPECT_THROW(Digraph(named(1), {{0, 9}}), util::ContractViolation);
  EXPECT_THROW(Digraph(named(1), {{-1, 0}}), util::ContractViolation);
}

TEST(Digraph, RemoveNodesRemapsAndPreservesEdges) {
  Digraph g = chain(5);  // 0->1->2->3->4
  const auto remap = g.remove_nodes({1});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[1], kInvalidNode);
  EXPECT_EQ(remap[2], 1);
  // Survivors keep their names, the ones before the removed id too.
  EXPECT_EQ(g.node(0).name, "n0");
  EXPECT_EQ(g.node(1).name, "n2");
  EXPECT_EQ(g.node(3).name, "n4");
  // Edge 0->1 and 1->2 removed with the node; 2->3->4 survive.
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Digraph, InducedSubgraph) {
  Digraph g = chain(4);
  const Digraph sub = g.induced_subgraph({1, 2});
  EXPECT_EQ(sub.num_nodes(), 2u);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_EQ(sub.node(0).name, "n1");
}

TEST(Digraph, FindByName) {
  Digraph g = chain(3);
  EXPECT_EQ(g.find_by_name("n2"), 2);
  EXPECT_EQ(g.find_by_name("zz"), kInvalidNode);
}

TEST(Algorithms, WeaklyConnectedComponents) {
  Digraph g(named(4), chain_edges(3));  // node 3 is an island
  const auto labels = weakly_connected_components(g);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(num_weak_components(g), 2);
}

TEST(Algorithms, ReachableForwardAndBackward) {
  Digraph g = chain(4);
  const auto fwd = reachable(g, {1}, Direction::kForward);
  EXPECT_FALSE(fwd[0]);
  EXPECT_TRUE(fwd[1]);
  EXPECT_TRUE(fwd[3]);
  const auto bwd = reachable(g, {1}, Direction::kBackward);
  EXPECT_TRUE(bwd[0]);
  EXPECT_FALSE(bwd[2]);
}

TEST(Algorithms, CycleDetection) {
  EXPECT_FALSE(has_cycle(chain(3)));
  std::vector<Edge> edges = chain_edges(3);
  edges.emplace_back(2, 0);
  EXPECT_TRUE(has_cycle(Digraph(named(3), edges)));
}

TEST(Algorithms, SelfLoopIsCycle) {
  const Digraph g({{"a", 0}}, {{0, 0}});
  EXPECT_TRUE(has_cycle(g));
}

TEST(Algorithms, TopologicalOrder) {
  const NodeId a = 0;
  const NodeId b = 1;
  const NodeId c = 2;
  const Digraph g({{"a", 0}, {"b", 0}, {"c", 0}}, {{a, c}, {b, c}});
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 3u);
  // c must come after both a and b.
  std::size_t pos_a = 0;
  std::size_t pos_b = 0;
  std::size_t pos_c = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == a) pos_a = i;
    if (order[i] == b) pos_b = i;
    if (order[i] == c) pos_c = i;
  }
  EXPECT_GT(pos_c, pos_a);
  EXPECT_GT(pos_c, pos_b);
}

TEST(Algorithms, TopologicalOrderThrowsOnCycle) {
  const Digraph g(named(2), {{0, 1}, {1, 0}});
  EXPECT_THROW(topological_order(g), util::ContractViolation);
}

TEST(Algorithms, StructuralHashInvariantToNames) {
  const Digraph g1({{"x", 1}, {"y", 2}}, {{0, 1}});
  const Digraph g2({{"completely", 1}, {"different", 2}}, {{0, 1}});
  EXPECT_EQ(structural_hash(g1), structural_hash(g2));
}

TEST(Algorithms, StructuralHashSensitiveToKindsAndWiring) {
  const Digraph g1({{"a", 1}, {"b", 2}}, {{0, 1}});
  const Digraph g2({{"a", 1}, {"b", 3}}, {{0, 1}});  // different kind
  EXPECT_NE(structural_hash(g1), structural_hash(g2));

  const Digraph g3({{"a", 1}, {"b", 2}}, {{1, 0}});  // reversed edge
  EXPECT_NE(structural_hash(g1), structural_hash(g3));
}

TEST(Algorithms, StructuralHashInvariantToNodeOrder) {
  const Digraph g1({{"a", 1}, {"b", 2}, {"c", 3}}, {{0, 1}, {1, 2}});
  const Digraph g2({{"c", 3}, {"a", 1}, {"b", 2}}, {{1, 2}, {2, 0}});
  EXPECT_EQ(structural_hash(g1), structural_hash(g2));
}

TEST(Algorithms, KindHistogram) {
  Digraph g = chain(5);  // kinds 0,1,2,0,1
  const auto hist = kind_histogram(g);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 2);
  EXPECT_EQ(hist[1], 2);
  EXPECT_EQ(hist[2], 1);
}

TEST(Serialize, DotOutputContainsNodesAndEdges) {
  Digraph g = chain(2);
  const std::string dot = to_dot(g, "test");
  EXPECT_NE(dot.find("digraph test"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("label="), std::string::npos);
}

TEST(Serialize, DotEscapesQuotes) {
  const Digraph g({{"a\"b", 0}}, {});
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

TEST(Serialize, TextRoundTrip) {
  std::vector<Edge> edges = chain_edges(4);
  edges.emplace_back(0, 3);
  const Digraph g(named(4), edges);
  std::ostringstream os;
  write_text(os, g);
  std::istringstream is(os.str());
  const Digraph g2 = read_text(is);
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.node(3).name, "n3");
  EXPECT_TRUE(g2.has_edge(0, 3));
  EXPECT_EQ(structural_hash(g), structural_hash(g2));
}

TEST(Serialize, RejectsMalformedStream) {
  std::istringstream bad1("not a graph");
  EXPECT_THROW(read_text(bad1), std::runtime_error);
  std::istringstream bad2("gnn4ip-graph v1\nnodes 1\n0 a\nedges 1\n0 9\n");
  EXPECT_THROW(read_text(bad2), std::runtime_error);
}

TEST(Serialize, OverLargeCountsEndInTruncationErrors) {
  // The counts are untrusted: no allocation is sized from them.
  const auto message = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)read_text(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message("gnn4ip-graph v1\nnodes 4000000000\n0 a\n")
                .find("truncated node list"),
            std::string::npos);
  EXPECT_NE(message("gnn4ip-graph v1\nnodes 1\n0 a\nedges 4000000000\n0 0\n")
                .find("truncated edge list"),
            std::string::npos);
}

TEST(Serialize, NodeNamesWithSpacesSurvive) {
  const Digraph g({{"name with spaces", 7}}, {});
  std::ostringstream os;
  write_text(os, g);
  std::istringstream is(os.str());
  const Digraph g2 = read_text(is);
  EXPECT_EQ(g2.node(0).name, "name with spaces");
  EXPECT_EQ(g2.node(0).kind, 7);
}

}  // namespace
}  // namespace gnn4ip::graph
