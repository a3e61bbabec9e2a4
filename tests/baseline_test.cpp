// Classical graph-similarity baseline tests.
#include <gtest/gtest.h>

#include <chrono>

#include "baseline/graph_similarity.h"
#include "data/rtl_designs.h"
#include "dfg/pipeline.h"
#include "graph/digraph.h"
#include "util/contract.h"

namespace gnn4ip::baseline {
namespace {

graph::Digraph star(int leaves, int center_kind, int leaf_kind) {
  std::vector<graph::Node> nodes{{"c", center_kind}};
  std::vector<graph::Edge> edges;
  for (int i = 0; i < leaves; ++i) {
    nodes.push_back({"l" + std::to_string(i), leaf_kind});
    edges.emplace_back(0, static_cast<graph::NodeId>(i + 1));
  }
  return graph::Digraph(std::move(nodes), edges);
}

TEST(NeighborMatching, IdenticalGraphsScoreOne) {
  const graph::Digraph g = star(4, 1, 2);
  EXPECT_NEAR(neighbor_matching_similarity(g, g), 1.0, 1e-6);
}

TEST(NeighborMatching, DisjointKindsScoreLow) {
  const graph::Digraph a = star(4, 1, 2);
  const graph::Digraph b = star(4, 7, 8);
  EXPECT_LT(neighbor_matching_similarity(a, b), 0.5);
}

TEST(NeighborMatching, PartialOverlapBetween) {
  const graph::Digraph a = star(4, 1, 2);
  const graph::Digraph b = star(8, 1, 2);  // same kinds, different size
  const double s = neighbor_matching_similarity(a, b);
  EXPECT_GT(s, 0.2);
  EXPECT_LT(s, 1.0);
}

TEST(NeighborMatching, SymmetricUpToGreedyTies) {
  const graph::Digraph a = star(3, 1, 2);
  const graph::Digraph b = star(5, 1, 3);
  const double ab = neighbor_matching_similarity(a, b);
  const double ba = neighbor_matching_similarity(b, a);
  EXPECT_NEAR(ab, ba, 0.05);
}

TEST(NeighborMatching, EmptyGraphRejected) {
  graph::Digraph empty;
  const graph::Digraph g = star(2, 1, 2);
  EXPECT_THROW((void)neighbor_matching_similarity(empty, g),
               util::ContractViolation);
}

TEST(WlHistogram, IdenticalGraphsScoreOne) {
  const graph::Digraph g = star(5, 1, 2);
  EXPECT_NEAR(wl_histogram_similarity(g, g), 1.0, 1e-9);
}

TEST(WlHistogram, DifferentKindsScoreZero) {
  const graph::Digraph a = star(5, 1, 2);
  const graph::Digraph b = star(5, 3, 4);
  EXPECT_NEAR(wl_histogram_similarity(a, b), 0.0, 1e-9);
}

TEST(WlHistogram, MoreRoundsMoreDiscrimination) {
  // A chain and a star with identical kind multiset: round-0 histograms
  // collide, deeper rounds separate them.
  const graph::Digraph chain({{"a", 1}, {"b", 2}, {"c", 2}, {"d", 2}},
                             {{0, 1}, {1, 2}, {2, 3}});
  const graph::Digraph s = star(3, 1, 2);
  const double shallow = wl_histogram_similarity(chain, s, {.rounds = 0});
  const double deep = wl_histogram_similarity(chain, s, {.rounds = 3});
  EXPECT_LT(deep, shallow);
}

TEST(Baselines, RenameOnlyVariantsMoreSimilarThanCrossDesign) {
  // Classical similarity handles *topological* identity (same style,
  // different names) but not the paper's same-behavior-different-topology
  // challenge — that failure mode is exactly why GNN4IP exists, and the
  // rivals bench quantifies it. Here we check the capability the
  // baseline does have.
  using data::RtlVariant;
  const graph::Digraph adder_a =
      dfg::extract_dfg(data::gen_adder(RtlVariant{1, 1}));
  const graph::Digraph adder_b =
      dfg::extract_dfg(data::gen_adder(RtlVariant{1, 2}));  // same style
  const graph::Digraph alu =
      dfg::extract_dfg(data::gen_alu(RtlVariant{0, 3}));
  const double same_wl = wl_histogram_similarity(adder_a, adder_b);
  const double cross_wl = wl_histogram_similarity(adder_a, alu);
  EXPECT_GT(same_wl, cross_wl);
}

TEST(Baselines, NeighborMatchingIsSlowerThanWl) {
  // The §IV-F claim: classical matching is orders slower. Verify the
  // ordering on mid-size DFGs without asserting absolute times.
  const graph::Digraph g1 =
      dfg::extract_dfg(data::gen_mips_single({0, 1}));
  const graph::Digraph g2 =
      dfg::extract_dfg(data::gen_mips_single({1, 2}));
  const auto t0 = std::chrono::steady_clock::now();
  (void)wl_histogram_similarity(g1, g2);
  const auto t1 = std::chrono::steady_clock::now();
  (void)neighbor_matching_similarity(g1, g2, {.iterations = 4});
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_GT((t2 - t1).count(), (t1 - t0).count());
}

}  // namespace
}  // namespace gnn4ip::baseline
