// Edge-case and robustness tests for the Verilog frontend beyond the
// happy paths of verilog_test.cpp: operator precedence, tricky lexical
// forms, malformed-input diagnostics, and elaboration corner cases.
#include <gtest/gtest.h>

#include "dfg/pipeline.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"

namespace gnn4ip::verilog {
namespace {

ExprPtr parse_expr(const std::string& text) {
  const Design d =
      parse("module t (output [31:0] y);\n  assign y = " + text +
            ";\nendmodule\n");
  return d.modules[0].assigns[0].rhs;
}

// --- precedence --------------------------------------------------------------

TEST(Precedence, MulBindsTighterThanAdd) {
  // a + b * c  =>  (a + (b * c))
  const ExprPtr e = parse_expr("a + b * c");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->op_binary, BinaryOp::kAdd);
  EXPECT_EQ(e->operands[1]->op_binary, BinaryOp::kMul);
}

TEST(Precedence, ShiftBelowAdd) {
  // a << b + c  =>  a << (b + c)
  const ExprPtr e = parse_expr("a << b + c");
  EXPECT_EQ(e->op_binary, BinaryOp::kShl);
  EXPECT_EQ(e->operands[1]->op_binary, BinaryOp::kAdd);
}

TEST(Precedence, BitwiseChain) {
  // a | b ^ c & d  =>  a | (b ^ (c & d))
  const ExprPtr e = parse_expr("a | b ^ c & d");
  EXPECT_EQ(e->op_binary, BinaryOp::kBitOr);
  EXPECT_EQ(e->operands[1]->op_binary, BinaryOp::kBitXor);
  EXPECT_EQ(e->operands[1]->operands[1]->op_binary, BinaryOp::kBitAnd);
}

TEST(Precedence, LogicalVsBitwise) {
  // a && b | c  =>  a && (b | c)
  const ExprPtr e = parse_expr("a && b | c");
  EXPECT_EQ(e->op_binary, BinaryOp::kLogAnd);
  EXPECT_EQ(e->operands[1]->op_binary, BinaryOp::kBitOr);
}

TEST(Precedence, ComparisonChainsIntoEquality) {
  // a < b == c  =>  (a < b) == c
  const ExprPtr e = parse_expr("a < b == c");
  EXPECT_EQ(e->op_binary, BinaryOp::kEq);
  EXPECT_EQ(e->operands[0]->op_binary, BinaryOp::kLt);
}

TEST(Precedence, TernaryLowest) {
  // a | b ? c : d  =>  (a | b) ? c : d
  const ExprPtr e = parse_expr("a | b ? c : d");
  ASSERT_EQ(e->kind, ExprKind::kTernary);
  EXPECT_EQ(e->operands[0]->op_binary, BinaryOp::kBitOr);
}

TEST(Precedence, NestedTernaryRightAssociative) {
  const ExprPtr e = parse_expr("a ? b : c ? d : f");
  ASSERT_EQ(e->kind, ExprKind::kTernary);
  EXPECT_EQ(e->operands[2]->kind, ExprKind::kTernary);
}

TEST(Precedence, UnaryBindsTightest) {
  // ~a & b  =>  (~a) & b
  const ExprPtr e = parse_expr("~a & b");
  EXPECT_EQ(e->op_binary, BinaryOp::kBitAnd);
  EXPECT_EQ(e->operands[0]->kind, ExprKind::kUnary);
}

TEST(Precedence, ReductionInsideComparison) {
  const ExprPtr e = parse_expr("^a == 1'b1");
  EXPECT_EQ(e->op_binary, BinaryOp::kEq);
  EXPECT_EQ(e->operands[0]->kind, ExprKind::kUnary);
  EXPECT_EQ(e->operands[0]->op_unary, UnaryOp::kRedXor);
}

TEST(Precedence, PowerAboveMul) {
  // a * b ** c  =>  a * (b ** c)
  const ExprPtr e = parse_expr("a * b ** c");
  EXPECT_EQ(e->op_binary, BinaryOp::kMul);
  EXPECT_EQ(e->operands[1]->op_binary, BinaryOp::kPow);
}

// --- lexical edge cases ---------------------------------------------------------

TEST(LexEdge, IndexedPartSelect) {
  const Design d = parse(
      "module m (input [15:0] a, input [3:0] i, output [3:0] y);\n"
      "  assign y = a[i +: 4];\n"
      "endmodule\n");
  EXPECT_EQ(d.modules[0].assigns[0].rhs->kind, ExprKind::kPartSelect);
}

TEST(LexEdge, EscapedIdentifier) {
  const Design d = parse(
      "module m (input \\weird$name , output y);\n"
      "  assign y = \\weird$name ;\n"
      "endmodule\n");
  EXPECT_EQ(d.modules[0].port_order[0], "weird$name");
}

TEST(LexEdge, UnderscoreNumbers) {
  const Design d = parse(
      "module m (output [15:0] y);\n"
      "  assign y = 16'b1010_1010_1010_1010;\n"
      "endmodule\n");
  EXPECT_EQ(d.modules[0].assigns[0].rhs->text, "16'b1010_1010_1010_1010");
}

TEST(LexEdge, XZLiterals) {
  const Design d = parse(
      "module m (output [3:0] y);\n  assign y = 4'bxz01;\nendmodule\n");
  EXPECT_FALSE(fold_constant(*d.modules[0].assigns[0].rhs).has_value());
}

TEST(LexEdge, SignedLiteral) {
  const Design d = parse(
      "module m (output [7:0] y);\n  assign y = 8'sd12;\nendmodule\n");
  EXPECT_EQ(fold_constant(*d.modules[0].assigns[0].rhs).value_or(-1), 12);
}

TEST(LexEdge, MultipleModulesOneBuffer) {
  const Design d = parse(
      "module a (input x, output y);\n  assign y = x;\nendmodule\n"
      "module b (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module c (input x, output y);\n  assign y = x;\nendmodule\n");
  EXPECT_EQ(d.modules.size(), 3u);
}

// --- diagnostics ---------------------------------------------------------------

struct BadSource {
  const char* name;
  const char* source;
};

class DiagnosticsTest : public ::testing::TestWithParam<BadSource> {};

TEST_P(DiagnosticsTest, RaisesParseError) {
  EXPECT_THROW(parse(GetParam().source), ParseError) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DiagnosticsTest,
    ::testing::Values(
        BadSource{"missing_endmodule", "module m (input a);\n"},
        BadSource{"missing_semicolon",
                  "module m (input a, output y)\n  assign y = a;\nendmodule\n"},
        BadSource{"bad_expression",
                  "module m (output y);\n  assign y = +;\nendmodule\n"},
        BadSource{"unterminated_concat",
                  "module m (input a, output y);\n  assign y = {a, ;\n"
                  "endmodule\n"},
        BadSource{"assign_to_number",
                  "module m (input a);\n  assign 4 = a;\nendmodule\n"},
        BadSource{"case_without_endcase",
                  "module m (input s, output reg y);\n"
                  "  always @(*) case (s) 1'b0: y = 1'b0;\nendmodule\n"},
        BadSource{"stray_token_toplevel", "wire x;\n"},
        BadSource{"unsupported_task",
                  "module m;\n  task t; endtask\nendmodule\n"},
        BadSource{"unterminated_string",
                  "module m;\n  initial $display(\"oops);\nendmodule\n"},
        BadSource{"bad_based_literal",
                  "module m (output y);\n  assign y = 4'q1010;\nendmodule\n"}),
    [](const ::testing::TestParamInfo<BadSource>& param_info) {
      return param_info.param.name;
    });

// --- elaboration corner cases ------------------------------------------------------

TEST(ElaborateEdge, DeepHierarchyThreeLevels) {
  const Design d = parse(
      "module leaf (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module mid (input x, output y);\n"
      "  wire t;\n  leaf l1 (.x(x), .y(t));\n  leaf l2 (.x(t), .y(y));\n"
      "endmodule\n"
      "module top (input a, output b);\n"
      "  mid m1 (.x(a), .y(b));\nendmodule\n");
  const Module flat = elaborate(d, "top");
  EXPECT_NE(flat.find_net("m1.l1.y"), nullptr);
  EXPECT_NE(flat.find_net("m1.l2.x"), nullptr);
  // DFG extraction over the flattened design is one connected graph.
  const graph::Digraph g = dfg::extract_dfg(
      "module leaf (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module mid (input x, output y);\n"
      "  wire t;\n  leaf l1 (.x(x), .y(t));\n  leaf l2 (.x(t), .y(y));\n"
      "endmodule\n"
      "module top (input a, output b);\n"
      "  mid m1 (.x(a), .y(b));\nendmodule\n");
  EXPECT_GT(g.num_nodes(), 6u);
}

TEST(ElaborateEdge, UnconnectedOutputPortAllowed) {
  const Design d = parse(
      "module child (input x, output y, output z);\n"
      "  assign y = x;\n  assign z = ~x;\nendmodule\n"
      "module top (input a, output b);\n"
      "  child u (.x(a), .y(b), .z());\n"
      "endmodule\n");
  EXPECT_NO_THROW(elaborate(d, "top"));
}

TEST(ElaborateEdge, ParameterChainsAcrossLevels) {
  const Design d = parse(
      "module leaf (output [7:0] y);\n"
      "  parameter V = 1;\n  assign y = V + 1;\nendmodule\n"
      "module mid (output [7:0] y);\n"
      "  parameter W = 2;\n  leaf #(.V(W * 3)) u (.y(y));\nendmodule\n"
      "module top (output [7:0] y);\n"
      "  mid #(.W(5)) u (.y(y));\nendmodule\n");
  const Module flat = elaborate(d, "top");
  // leaf's V must have been resolved to 15 -> "(15 + 1)".
  bool found = false;
  for (const ContinuousAssign& ca : flat.assigns) {
    if (to_verilog(*ca.rhs).find("15") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ElaborateEdge, LocalparamNotOverridable) {
  const Design d = parse(
      "module child (output [7:0] y);\n"
      "  localparam K = 3;\n  assign y = K;\nendmodule\n"
      "module top (output [7:0] y);\n"
      "  child #(.K(9)) u (.y(y));\nendmodule\n");
  const Module flat = elaborate(d, "top");
  bool kept_local = false;
  for (const ContinuousAssign& ca : flat.assigns) {
    if (to_verilog(*ca.rhs).find('3') != std::string::npos) kept_local = true;
  }
  EXPECT_TRUE(kept_local);
}

TEST(ElaborateEdge, PositionalParamOverride) {
  const Design d = parse(
      "module child (output [7:0] y);\n"
      "  parameter A = 1;\n  parameter B = 2;\n"
      "  assign y = A + B;\nendmodule\n"
      "module top (output [7:0] y);\n"
      "  child #(7, 9) u (.y(y));\nendmodule\n");
  const Module flat = elaborate(d, "top");
  bool found7 = false;
  bool found9 = false;
  for (const ContinuousAssign& ca : flat.assigns) {
    const std::string text = to_verilog(*ca.rhs);
    if (text.find('7') != std::string::npos) found7 = true;
    if (text.find('9') != std::string::npos) found9 = true;
  }
  EXPECT_TRUE(found7);
  EXPECT_TRUE(found9);
}

TEST(ElaborateEdge, MixedNamedPositionalRejected) {
  const Design d = parse(
      "module child (input x, output y);\n  assign y = x;\nendmodule\n"
      "module top (input a, output b);\n"
      "  child u (.x(a), b);\nendmodule\n");
  EXPECT_THROW(elaborate(d, "top"), ParseError);
}

TEST(ElaborateEdge, TooManyPositionalRejected) {
  const Design d = parse(
      "module child (input x);\nendmodule\n"
      "module top (input a, input b);\n  child u (a, b);\nendmodule\n");
  EXPECT_THROW(elaborate(d, "top"), ParseError);
}

TEST(ElaborateEdge, ExpressionActualOnInputPort) {
  const graph::Digraph g = dfg::extract_dfg(
      "module inv (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module top (input a, input b, output c);\n"
      "  inv u (.x(a & b), .y(c));\n"
      "endmodule\n");
  // The & of the actual expression must appear in the DFG.
  bool has_and = false;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (g.node(static_cast<graph::NodeId>(v)).name == "and") has_and = true;
  }
  EXPECT_TRUE(has_and);
}

}  // namespace
}  // namespace gnn4ip::verilog
