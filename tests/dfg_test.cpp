// DFG pipeline tests: dataflow analysis, merge, trim, end-to-end shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dfg/node_kind.h"
#include "dfg/pipeline.h"
#include "dfg/trim.h"
#include "gnn/featurize.h"
#include "gnn/hw2vec.h"
#include "golden_corpus.h"
#include "graph/algorithms.h"
#include "tensor/matrix.h"

namespace gnn4ip::dfg {
namespace {

using graph::Digraph;
using graph::NodeId;

Digraph dfg_of(const std::string& src, bool run_trim = true) {
  return run_trim ? extract_dfg(src) : build_dfg(src);
}

NodeKind kind_of_node(const Digraph& g, NodeId id) {
  return static_cast<NodeKind>(g.node(id).kind);
}

int count_kind(const Digraph& g, NodeKind kind) {
  int count = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (kind_of_node(g, static_cast<NodeId>(v)) == kind) ++count;
  }
  return count;
}

// --- basic structure ---------------------------------------------------------

TEST(Dfg, SimpleAssignProducesOperatorChain) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output y);\n"
      "  assign y = a & b;\n"
      "endmodule\n");
  // Nodes: y (output), a, b (inputs), and-operator.
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(count_kind(g, NodeKind::kInput), 2);
  EXPECT_EQ(count_kind(g, NodeKind::kOutput), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 1);

  // Output is a root (no in-edges), inputs are leaves (no out-edges).
  const NodeId y = g.find_by_name("y");
  ASSERT_NE(y, graph::kInvalidNode);
  EXPECT_EQ(g.in_degree(y), 0u);
  EXPECT_EQ(g.out_degree(y), 1u);
  const NodeId a = g.find_by_name("a");
  EXPECT_EQ(g.out_degree(a), 0u);
}

TEST(Dfg, OutputsAreRootsInputsAreLeaves) {
  const Digraph g = dfg_of(
      "module m (input a, input b, input c, output x, output z);\n"
      "  assign x = (a + b) * c;\n"
      "  assign z = a - c;\n"
      "endmodule\n");
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<NodeId>(v);
    if (kind_of_node(g, id) == NodeKind::kOutput) {
      EXPECT_EQ(g.in_degree(id), 0u) << g.node(id).name;
    }
    if (kind_of_node(g, id) == NodeKind::kInput) {
      EXPECT_EQ(g.out_degree(id), 0u) << g.node(id).name;
    }
  }
}

TEST(Dfg, SharedSignalNodesMergeTrees) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output x, output y);\n"
      "  wire t;\n"
      "  assign t = a ^ b;\n"
      "  assign x = t & a;\n"
      "  assign y = t | b;\n"
      "endmodule\n");
  // Exactly one node for t, consumed by both output trees.
  const NodeId t = g.find_by_name("t");
  ASSERT_NE(t, graph::kInvalidNode);
  EXPECT_EQ(g.in_degree(t), 2u);   // and-op and or-op reference t
  EXPECT_EQ(g.out_degree(t), 1u);  // driven by xor
}

TEST(Dfg, ConstantsSharedPerLiteral) {
  const Digraph g = dfg_of(
      "module m (input [7:0] a, output [7:0] x, output [7:0] y);\n"
      "  assign x = a + 8'h01;\n"
      "  assign y = a - 8'h01;\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kConstant), 1);
}

TEST(Dfg, GatePrimitivesBecomeOperatorNodes) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output y);\n"
      "  wire t1, t2;\n"
      "  xor (t1, a, b);\n"
      "  and (t2, a, b);\n"
      "  or (y, t1, t2);\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kXor), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kOr), 1);
}

TEST(Dfg, NotAndBufGatesMultipleOutputs) {
  const Digraph g = dfg_of(
      "module m (input a, output x, output y);\n"
      "  not (x, y0, a);\n"  // two outputs driven by one input
      "  buf (y, y0);\n"
      "endmodule\n");
  EXPECT_GE(count_kind(g, NodeKind::kNot), 1);
  EXPECT_GE(count_kind(g, NodeKind::kBuf), 1);
}

// --- procedural semantics ------------------------------------------------------

TEST(Dfg, IfBecomesMux) {
  const Digraph g = dfg_of(
      "module m (input s, input a, input b, output reg y);\n"
      "  always @(*) begin\n"
      "    if (s) y = a;\n"
      "    else y = b;\n"
      "  end\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kMux), 1);
  // Mux feeds from s, a, b.
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (kind_of_node(g, static_cast<NodeId>(v)) == NodeKind::kMux) {
      EXPECT_EQ(g.out_degree(static_cast<NodeId>(v)), 3u);
    }
  }
}

TEST(Dfg, IfWithoutElseHoldsPreviousValue) {
  const Digraph g = dfg_of(
      "module m (input clk, input en, input d, output reg q);\n"
      "  always @(posedge clk) begin\n"
      "    if (en) q <= d;\n"
      "  end\n"
      "endmodule\n");
  // q depends on itself through the mux else-branch (register feedback).
  const NodeId q = g.find_by_name("q");
  ASSERT_NE(q, graph::kInvalidNode);
  const auto reachable =
      graph::reachable(g, {q}, graph::Direction::kForward);
  EXPECT_TRUE(reachable[static_cast<std::size_t>(q)]);
  bool q_in_own_tree = false;
  for (NodeId u : g.in_neighbors(q)) {
    (void)u;
    q_in_own_tree = true;  // something references q
  }
  EXPECT_TRUE(q_in_own_tree);
}

TEST(Dfg, RegisterKindForEdgeTriggered) {
  const Digraph g = dfg_of(
      "module m (input clk, input d, output y);\n"
      "  reg st;\n"
      "  always @(posedge clk) st <= d;\n"
      "  assign y = st;\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kRegister), 1);
}

TEST(Dfg, RepeatedPortClassifiedByFirstDeclaration) {
  // `a` is declared input, then output, then reg, and is driven by an
  // edge-triggered block: its one node takes the first declaration's
  // direction, which outranks the register drive.
  const Digraph g = dfg_of(
      "module m (input clk, input a, output a, input b, output y);\n"
      "  reg a;\n"
      "  always @(posedge clk) a <= b;\n"
      "  assign y = a;\n"
      "endmodule\n",
      /*run_trim=*/false);
  const NodeId a = g.find_by_name("a");
  ASSERT_NE(a, graph::kInvalidNode);
  EXPECT_EQ(kind_of_node(g, a), NodeKind::kInput);
  EXPECT_EQ(count_kind(g, NodeKind::kRegister), 0);
}

TEST(Dfg, BlockingAssignSubstitutesWithinBlock) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output reg y);\n"
      "  reg t;\n"
      "  always @(*) begin\n"
      "    t = a & b;\n"
      "    y = t | a;\n"
      "  end\n"
      "endmodule\n");
  // y's tree must contain the AND through substitution.
  const NodeId y = g.find_by_name("y");
  const auto fwd = graph::reachable(g, {y}, graph::Direction::kForward);
  bool saw_and = false;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (fwd[v] &&
        kind_of_node(g, static_cast<NodeId>(v)) == NodeKind::kAnd) {
      saw_and = true;
    }
  }
  EXPECT_TRUE(saw_and);
}

TEST(Dfg, SharedValueExpandsOncePerUse) {
  // t's value is one shared expression, read twice by y; merge still
  // expands it at every use, so the DFG is what copying it would give.
  const Digraph g = dfg_of(
      "module m (input a, input b, output reg y);\n"
      "  reg t;\n"
      "  always @(*) begin\n"
      "    t = a ^ b;\n"
      "    y = t & t;\n"
      "  end\n"
      "endmodule\n");
  // a, b, y, t; t's xor; y's and over two xors of its own.
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(count_kind(g, NodeKind::kXor), 3);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 1);
  const NodeId and_node = g.out_neighbors(g.find_by_name("y")).front();
  const auto operands = g.out_neighbors(and_node);
  ASSERT_EQ(operands.size(), 2u);
  EXPECT_NE(operands[0], operands[1]);
}

TEST(Dfg, CaseBecomesMuxChainWithEq) {
  const Digraph g = dfg_of(
      "module m (input [1:0] s, input a, input b, input c, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      2'b00: y = a;\n"
      "      2'b01: y = b;\n"
      "      default: y = c;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kMux), 2);
  EXPECT_EQ(count_kind(g, NodeKind::kEq), 2);
}

TEST(Dfg, MultiLabelCaseUsesLogOr) {
  const Digraph g = dfg_of(
      "module m (input [1:0] s, input a, input b, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      2'b00, 2'b11: y = a;\n"
      "      default: y = b;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kLogOr), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kEq), 2);
}

TEST(Dfg, NonblockingReadsPreBlockValues) {
  // Swap idiom: both registers must read the *old* value of the other.
  const Digraph g = dfg_of(
      "module m (input clk, output reg a, output reg b);\n"
      "  always @(posedge clk) begin\n"
      "    a <= b;\n"
      "    b <= a;\n"
      "  end\n"
      "endmodule\n");
  const NodeId a = g.find_by_name("a");
  const NodeId b = g.find_by_name("b");
  ASSERT_NE(a, graph::kInvalidNode);
  ASSERT_NE(b, graph::kInvalidNode);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
}

TEST(Dfg, PartialBitAssignsMergeDependencies) {
  const Digraph g = dfg_of(
      "module m (input clk, input fb, output reg [1:0] r);\n"
      "  always @(posedge clk) begin\n"
      "    r[1] <= r[0];\n"
      "    r[0] <= fb;\n"
      "  end\n"
      "endmodule\n");
  const NodeId r = g.find_by_name("r");
  ASSERT_NE(r, graph::kInvalidNode);
  // r must depend (transitively) on both fb and itself.
  const auto fwd = graph::reachable(g, {r}, graph::Direction::kForward);
  const NodeId fb = g.find_by_name("fb");
  EXPECT_TRUE(fwd[static_cast<std::size_t>(fb)]);
}

// --- trim ----------------------------------------------------------------------

TEST(Dfg, TrimRemovesDisconnectedSubgraphs) {
  // `c` feeds only dead logic, so the {c, xor, dead1} component contains
  // no output and is trimmed. (Dead logic sharing an input with live
  // logic stays weakly connected and is kept — trim is per component.)
  const std::string src =
      "module m (input a, input b, input c, output y);\n"
      "  wire dead1, dead2;\n"
      "  assign dead1 = c ^ c;\n"  // feeds nothing
      "  assign y = a & b;\n"
      "endmodule\n";
  const Digraph untrimmed = dfg_of(src, /*run_trim=*/false);
  const Digraph trimmed = dfg_of(src, /*run_trim=*/true);
  EXPECT_LT(trimmed.num_nodes(), untrimmed.num_nodes());
  EXPECT_EQ(graph::num_weak_components(trimmed), 1);
  EXPECT_EQ(trimmed.find_by_name("dead1"), graph::kInvalidNode);
}

TEST(Dfg, TrimKeepsEverythingWhenConnected) {
  const std::string src =
      "module m (input a, output y);\n  assign y = ~a;\nendmodule\n";
  const Digraph untrimmed = dfg_of(src, false);
  const Digraph trimmed = dfg_of(src, true);
  EXPECT_EQ(trimmed.num_nodes(), untrimmed.num_nodes());
}

TEST(Dfg, TrimRemovesIsolatedNets) {
  const std::string src =
      "module m (input a, output y);\n"
      "  wire unused_net;\n"
      "  assign y = a;\n"
      "endmodule\n";
  Digraph g = dfg_of(src, /*run_trim=*/false);
  const std::size_t untrimmed = g.num_nodes();
  ASSERT_NE(g.find_by_name("unused_net"), graph::kInvalidNode);
  trim(g);
  EXPECT_EQ(g.find_by_name("unused_net"), graph::kInvalidNode);
  EXPECT_EQ(g.num_nodes(), untrimmed - 1);
  EXPECT_NE(g.find_by_name("a"), graph::kInvalidNode);
  EXPECT_NE(g.find_by_name("y"), graph::kInvalidNode);
}

/// The trim as three sequential passes, each compacting when something
/// goes: the reference trim() must equal. Returns each original id's
/// id after the trim (graph::kInvalidNode for the ones it drops).
std::vector<NodeId> trim_reference(Digraph& g) {
  std::vector<NodeId> final_id(g.num_nodes());
  for (std::size_t v = 0; v < final_id.size(); ++v) {
    final_id[v] = static_cast<NodeId>(v);
  }
  const auto compact = [&g, &final_id](const std::vector<NodeId>& gone) {
    if (gone.empty()) return;
    const std::vector<NodeId> remap = g.remove_nodes(gone);
    for (NodeId& id : final_id) {
      if (id != graph::kInvalidNode) id = remap[static_cast<std::size_t>(id)];
    }
  };
  std::vector<NodeId> dead;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<NodeId>(v);
    if (kind_of_node(g, id) == NodeKind::kConstant && g.in_degree(id) == 0) {
      dead.push_back(id);
    }
  }
  compact(dead);
  std::vector<NodeId> isolated;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<NodeId>(v);
    if (g.in_degree(id) == 0 && g.out_degree(id) == 0) isolated.push_back(id);
  }
  compact(isolated);
  if (g.num_nodes() == 0) return final_id;
  const std::vector<int> component = graph::weakly_connected_components(g);
  const auto count = static_cast<std::size_t>(
      1 + *std::max_element(component.begin(), component.end()));
  std::vector<bool> keep(count, false);
  std::vector<int> size(count, 0);
  bool any_output = false;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto c = static_cast<std::size_t>(component[v]);
    ++size[c];
    if (kind_of_node(g, static_cast<NodeId>(v)) == NodeKind::kOutput) {
      keep[c] = true;
      any_output = true;
    }
  }
  if (!any_output) {
    keep[static_cast<std::size_t>(std::max_element(size.begin(), size.end()) -
                                  size.begin())] = true;
  }
  std::vector<NodeId> to_remove;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (!keep[static_cast<std::size_t>(component[v])]) {
      to_remove.push_back(static_cast<NodeId>(v));
    }
  }
  compact(to_remove);
  return final_id;
}

TEST(Trim, OnePassEqualsThreeSequentialPasses) {
  std::vector<std::pair<std::string, Digraph>> cases;
  for (const auto& [label, src] : golden::designs()) {
    cases.emplace_back(label, build_dfg(src));
  }
  const auto k = [](NodeKind kind) { return static_cast<int>(kind); };
  // A constant with a successor: step 1 drops it, which leaves the
  // successor isolated, so step 2 drops that too.
  cases.emplace_back("constant-with-successor",
                     Digraph({{"1'b1", k(NodeKind::kConstant)},
                              {"x", k(NodeKind::kSignal)}},
                             {{0, 1}}));
  // A node whose only edge is a self-loop is not isolated.
  cases.emplace_back("self-loop-only", Digraph({{"r", k(NodeKind::kRegister)},
                                                {"a", k(NodeKind::kInput)}},
                                               {{0, 0}}));
  // No output and two equally large components: the first one stays.
  cases.emplace_back("no-output-tie",
                     Digraph({{"a", k(NodeKind::kInput)},
                              {"b", k(NodeKind::kInput)},
                              {"c", k(NodeKind::kSignal)},
                              {"d", k(NodeKind::kSignal)}},
                             {{3, 1}, {2, 0}}));
  cases.emplace_back("all-isolated", Digraph({{"a", k(NodeKind::kInput)},
                                              {"b", k(NodeKind::kSignal)},
                                              {"1", k(NodeKind::kConstant)}},
                                             {}));
  for (auto& [label, g] : cases) {
    const Digraph untrimmed = g;
    Digraph reference = g;
    const std::vector<NodeId> final_id = trim_reference(reference);
    trim(g);
    ASSERT_EQ(g.num_nodes(), reference.num_nodes()) << label;
    // Both trims go through remove_nodes, so check the survivors against
    // the untrimmed graph as well as against each other.
    for (std::size_t old = 0; old < untrimmed.num_nodes(); ++old) {
      const NodeId id = final_id[old];
      if (id == graph::kInvalidNode) continue;
      const auto before = static_cast<NodeId>(old);
      EXPECT_EQ(g.node(id).name, untrimmed.node(before).name)
          << label << " node " << old;
      EXPECT_EQ(g.node(id).kind, untrimmed.node(before).kind)
          << label << " node " << old;
    }
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      const auto id = static_cast<NodeId>(v);
      EXPECT_EQ(g.node(id).name, reference.node(id).name) << label;
      EXPECT_EQ(g.node(id).kind, reference.node(id).kind) << label;
      const auto in = g.in_neighbors(id);
      const auto ref_in = reference.in_neighbors(id);
      EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()),
                std::vector<NodeId>(ref_in.begin(), ref_in.end()))
          << label << " node " << v;
    }
    EXPECT_EQ(g.edges(), reference.edges()) << label;
  }
}

// --- hierarchy ---------------------------------------------------------------

TEST(Dfg, HierarchicalDesignFlattensIntoOneGraph) {
  const Digraph g = dfg_of(
      "module ha (input x, input y, output s, output c);\n"
      "  assign s = x ^ y;\n  assign c = x & y;\nendmodule\n"
      "module fa (input a, input b, input cin, output sum, output cout);\n"
      "  wire s1, c1, c2;\n"
      "  ha u1 (.x(a), .y(b), .s(s1), .c(c1));\n"
      "  ha u2 (.x(s1), .y(cin), .s(sum), .c(c2));\n"
      "  assign cout = c1 | c2;\n"
      "endmodule\n");
  EXPECT_EQ(graph::num_weak_components(g), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kXor), 2);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 2);
  EXPECT_NE(g.find_by_name("u1.s"), graph::kInvalidNode);
}

// --- paper example: same design, different codes --------------------------------

TEST(Dfg, PaperAdderVariantsDifferInTopologyNotBehavior) {
  const std::string adder1 =
      "module ADDER (input Num1, input Num2, input Cin,\n"
      "              output reg Sum, output reg Cout);\n"
      "  always @(Num1, Num2, Cin) begin\n"
      "    Sum <= ((Num1 ^ Num2) ^ Cin);\n"
      "    Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));\n"
      "  end\n"
      "endmodule\n";
  const std::string adder2 =
      "module ADDER (Num1, Num2, Cin, Sum, Cout);\n"
      "  input Num1, Num2, Cin;\n"
      "  output Sum, Cout;\n"
      "  wire t1, t2, t3;\n"
      "  xor (t1, Num1, Num2);\n"
      "  and (t2, Num1, Num2);\n"
      "  and (t3, t1, Cin);\n"
      "  xor (Sum, t1, Cin);\n"
      "  or (Cout, t3, t2);\n"
      "endmodule\n";
  const Digraph g1 = dfg_of(adder1);
  const Digraph g2 = dfg_of(adder2);
  // Different topologies (the research challenge §I-B)...
  EXPECT_NE(graph::structural_hash(g1), graph::structural_hash(g2));
  // ...but the same signal interface and comparable operator content.
  EXPECT_EQ(count_kind(g1, NodeKind::kInput), 3);
  EXPECT_EQ(count_kind(g2, NodeKind::kInput), 3);
  EXPECT_EQ(count_kind(g1, NodeKind::kOutput), 2);
  EXPECT_EQ(count_kind(g2, NodeKind::kOutput), 2);
  EXPECT_GE(count_kind(g2, NodeKind::kXor), 2);
}

// --- summaries -----------------------------------------------------------------

TEST(Dfg, SummarizeCounts) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output y);\n"
      "  assign y = a + b;\n"
      "endmodule\n");
  const DfgSummary s = summarize(g);
  EXPECT_EQ(s.num_nodes, 4u);
  EXPECT_EQ(s.num_inputs, 2u);
  EXPECT_EQ(s.num_outputs, 1u);
  EXPECT_EQ(s.num_operators, 1u);
}

TEST(Dfg, NodeKindVocabularyStable) {
  // The one-hot featurizer depends on this count; changing it invalidates
  // saved models, so pin it.
  EXPECT_EQ(kNodeKindCount, 43);
  EXPECT_TRUE(is_signal_kind(NodeKind::kInput));
  EXPECT_TRUE(is_signal_kind(NodeKind::kConstant));
  EXPECT_FALSE(is_signal_kind(NodeKind::kAdd));
  EXPECT_TRUE(is_operator_kind(NodeKind::kMux));
}

// --- byte-for-byte pin of the front end ----------------------------------------

/// Everything the front end hands to scoring: the trimmed DFG (node names
/// and kinds in id order, edges() in its order), the featurized tensors,
/// and the embedding.
std::uint64_t front_end_hash(const std::string& src, gnn::Hw2Vec& model) {
  const Digraph g = dfg_of(src);
  golden::Fnv1a h;
  h.u64(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const graph::Node& node = g.node(static_cast<NodeId>(v));
    h.str(node.name);
    h.u64(static_cast<std::uint64_t>(node.kind));
  }
  auto edges = g.edges();
  h.u64(edges.size());
  for (const auto& [src_id, dst_id] : edges) {
    h.u64(static_cast<std::uint64_t>(src_id));
    h.u64(static_cast<std::uint64_t>(dst_id));
  }
  const gnn::GraphTensors t = gnn::featurize(g);
  for (const float f : t.x.data()) h.f32(f);
  // The self-loop-free edge list Â is built from, in (src, dst) order.
  std::erase_if(edges, [](const auto& e) { return e.first == e.second; });
  std::sort(edges.begin(), edges.end());
  h.u64(edges.size());
  for (const auto& [src_id, dst_id] : edges) {
    h.u64(static_cast<std::uint64_t>(src_id));
    h.u64(static_cast<std::uint64_t>(dst_id));
  }
  for (const std::size_t offset : t.adj->row_offsets()) h.u64(offset);
  for (const std::size_t col : t.adj->col_indices()) h.u64(col);
  for (const float f : t.adj->values()) h.f32(f);
  const tensor::Matrix embedding = model.embed_inference(t);
  for (const float f : embedding.data()) h.f32(f);
  return h.value();
}

// Recorded before the front end's declaration lookups were hash-indexed;
// any change to these constants means a verdict may have changed.
const std::map<std::string, std::uint64_t> kGoldenHashes = {
    {"iscas/c432", 0xb98df000edaac910ULL},
    {"iscas_obf/c432", 0xea545eadbe3cb65fULL},
    {"iscas/c499", 0x810957363da7bc1fULL},
    {"iscas_obf/c499", 0x9b915d2b89c38451ULL},
    {"iscas/c880", 0x1bb4921435e00decULL},
    {"iscas_obf/c880", 0x659fedcb48ad5d89ULL},
    {"iscas/c1355", 0x9470ffc2a258be1ULL},
    {"iscas_obf/c1355", 0x1625053f96cdc4dfULL},
    {"iscas/c1908", 0x747d295a0947a6c4ULL},
    {"iscas_obf/c1908", 0x1c15725ac38486faULL},
    {"iscas/c6288", 0xdd49e600256f889aULL},
    {"iscas_obf/c6288", 0x5265bb9cbcfc3a09ULL},
    {"netlist/nl_adder8", 0x9b5eea0e271fd8c7ULL},
    {"netlist/nl_sub8", 0xa381dfd81db66e06ULL},
    {"netlist/nl_alu4", 0xe4835f48ad79f4bbULL},
    {"netlist/nl_mult4", 0xeb6f12327b57cdebULL},
    {"netlist/nl_parity16", 0xcc591af3356ab529ULL},
    {"netlist/nl_cmp8", 0xa7f03fe179ca0642ULL},
    {"netlist/nl_dec3to8", 0xf94e8c992d9b553cULL},
    {"netlist/nl_mux8", 0x32e97441f371bcb8ULL},
    {"netlist/nl_gray8", 0xe48cb48b5300edc6ULL},
    {"netlist/nl_prio8", 0x443d05b7cbb6afa5ULL},
    {"netlist/nl_ham12", 0x77fbb6bacdab9104ULL},
    {"rtl/adder/0", 0x27eb35400c3e7dc3ULL},
    {"rtl/adder/1", 0x447913145f3d7589ULL},
    {"rtl/adder/2", 0xcfda51b1ff13e82bULL},
    {"rtl/alu/0", 0x7a4df5f09c810fccULL},
    {"rtl/alu/1", 0x7a4df5f09c810fccULL},
    {"rtl/counter/0", 0x18bc0fb0ec270919ULL},
    {"rtl/counter/1", 0xd76d33d2b9a94c18ULL},
    {"rtl/gray_counter/0", 0xd0e0a283bbbcb971ULL},
    {"rtl/gray_counter/1", 0x946216d40fbbc58ULL},
    {"rtl/lfsr/0", 0x11dd7a4074d69588ULL},
    {"rtl/lfsr/1", 0xc53aa4f0a6ac1864ULL},
    {"rtl/crc8/0", 0xfa90a9b4eac0a25fULL},
    {"rtl/crc8/1", 0x54c1cd37b6c42f60ULL},
    {"rtl/parity/0", 0x68d1a669c46fdf4cULL},
    {"rtl/parity/1", 0xb941350c00be9df3ULL},
    {"rtl/shift_reg/0", 0x943909f5e44af0dfULL},
    {"rtl/shift_reg/1", 0x4dd961761b4e916aULL},
    {"rtl/fifo_ctrl/0", 0xa1918c0f8a88addULL},
    {"rtl/fifo_ctrl/1", 0x5a9c55c470c812a8ULL},
    {"rtl/uart_tx/0", 0x9d112ed8953a119bULL},
    {"rtl/uart_tx/1", 0x5ae4958f2d538cb1ULL},
    {"rtl/uart_rx/0", 0xa6036d9554b66cb1ULL},
    {"rtl/uart_rx/1", 0x7f2b4a58b732e5b5ULL},
    {"rtl/spi_master/0", 0xb32f0c9bab858134ULL},
    {"rtl/spi_master/1", 0x9769510a80ee4416ULL},
    {"rtl/pwm/0", 0xdf7390eafca4a096ULL},
    {"rtl/pwm/1", 0x2bc7ca5b53663e8cULL},
    {"rtl/traffic_fsm/0", 0xcd731ae37cd969a6ULL},
    {"rtl/traffic_fsm/1", 0xfff2175c1c128d15ULL},
    {"rtl/seq_detector/0", 0x21a362dacfa6142aULL},
    {"rtl/seq_detector/1", 0x9503647bd9309130ULL},
    {"rtl/multiplier/0", 0x8e5ca0f2d41ba004ULL},
    {"rtl/multiplier/1", 0x6ed6a4065f8323deULL},
    {"rtl/hamming_enc/0", 0x277ba4a6aa833c43ULL},
    {"rtl/hamming_enc/1", 0x3512b8694394b624ULL},
    {"rtl/fpa/0", 0x38a3482d9c83f55ULL},
    {"rtl/fpa/1", 0x5544dfc3687eb173ULL},
    {"rtl/aes_round/0", 0x67c673a1b8a9bd3bULL},
    {"rtl/aes_round/1", 0x22be4b76d9defcdaULL},
    {"rtl/mips_single/0", 0xf3ca5ccf4d5dfc91ULL},
    {"rtl/mips_single/1", 0xf3ca5ccf4d5dfc91ULL},
    {"rtl/mips_pipeline/0", 0xaaa053e38ac15e67ULL},
    {"rtl/mips_pipeline/1", 0xaaa053e38ac15e67ULL},
    {"rtl/mips_multicycle/0", 0x981047ab43f42758ULL},
    {"rtl/mips_multicycle/1", 0x981047ab43f42758ULL},
    {"rtl/barrel_shifter/0", 0xeaed6c2bd0afbd43ULL},
    {"rtl/barrel_shifter/1", 0x284c4564bd090141ULL},
    {"rtl/bcd_counter/0", 0x908ec7c1867eff39ULL},
    {"rtl/bcd_counter/1", 0x7552b92ef06d5f4eULL},
    {"rtl/johnson_counter/0", 0xc079b980115f1345ULL},
    {"rtl/johnson_counter/1", 0x6ebd96352ab19415ULL},
    {"rtl/clock_divider/0", 0x9a95b4773803f37ULL},
    {"rtl/clock_divider/1", 0xd0ecb1b7329e8dd1ULL},
    {"rtl/debouncer/0", 0x7f04ef40a5a7c940ULL},
    {"rtl/debouncer/1", 0xf2653c096579943fULL},
    {"rtl/majority_voter/0", 0x6ac724834b5b862fULL},
    {"rtl/majority_voter/1", 0xfbda6a93b7be4f0ULL},
    {"rtl/popcount/0", 0x77fa51b4cfe6e3acULL},
    {"rtl/popcount/1", 0x90d0ea01d6c01375ULL},
    {"rtl/divider/0", 0x6468553bf9cde99cULL},
    {"rtl/divider/1", 0xae4eb6c80922dd7aULL},
    {"rtl/rr_arbiter/0", 0xa62258d631654313ULL},
    {"rtl/rr_arbiter/1", 0x75fcbd99d4bc33b9ULL},
    {"rtl/moving_average/0", 0xdb14902a1d463787ULL},
    {"rtl/moving_average/1", 0x6ee3f7d5737fe82aULL},
    {"rtl/sqrt/0", 0xf03445bc3e838661ULL},
    {"rtl/sqrt/1", 0xb9c862f4026632e9ULL},
};

TEST(FrontEndGolden, DfgTensorsAndEmbeddingsByteIdentical) {
  gnn::Hw2Vec model;  // default config, weight seed 1
  const auto designs = golden::designs();
  EXPECT_EQ(designs.size(), kGoldenHashes.size());
  for (const auto& [label, src] : designs) {
    const std::uint64_t hash = front_end_hash(src, model);
    const auto it = kGoldenHashes.find(label);
    if (it == kGoldenHashes.end()) {
      ADD_FAILURE() << "no golden hash: {\"" << label << "\", 0x" << std::hex
                    << hash << "ULL},";
      continue;
    }
    EXPECT_EQ(hash, it->second) << label;
  }
}

}  // namespace
}  // namespace gnn4ip::dfg
