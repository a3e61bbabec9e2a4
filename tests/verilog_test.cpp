// Verilog frontend tests: preprocessor, lexer, parser, elaboration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "verilog/elaborate.h"
#include "verilog/parser.h"
#include "verilog/preprocess.h"
#include "verilog/token.h"

namespace gnn4ip::verilog {
namespace {

// --- preprocessor ----------------------------------------------------------

TEST(Preprocess, StripsLineComments) {
  EXPECT_EQ(preprocess("wire a; // comment\nwire b;"),
            "wire a; \nwire b;");
}

TEST(Preprocess, StripsBlockCommentsKeepingLines) {
  const std::string out = preprocess("a /* x\ny */ b");
  EXPECT_EQ(out, "a \n b");
}

TEST(Preprocess, ExpandsObjectMacros) {
  EXPECT_EQ(preprocess("`define W 8\nwire [`W-1:0] x;"),
            "\nwire [8-1:0] x;");
}

TEST(Preprocess, IfdefElseEndif) {
  const std::string src =
      "`define FAST\n`ifdef FAST\nwire f;\n`else\nwire s;\n`endif\n";
  const std::string out = preprocess(src);
  EXPECT_NE(out.find("wire f;"), std::string::npos);
  EXPECT_EQ(out.find("wire s;"), std::string::npos);
}

TEST(Preprocess, IfndefTakesElseBranchWhenDefined) {
  const std::string src =
      "`define X\n`ifndef X\nwire a;\n`else\nwire b;\n`endif\n";
  const std::string out = preprocess(src);
  EXPECT_EQ(out.find("wire a;"), std::string::npos);
  EXPECT_NE(out.find("wire b;"), std::string::npos);
}

TEST(Preprocess, IncludeResolvesThroughCallback) {
  PreprocessOptions opts;
  opts.resolver = [](const std::string& path) -> std::optional<std::string> {
    if (path == "defs.vh") return std::string("wire from_include;");
    return std::nullopt;
  };
  const std::string out = preprocess("`include \"defs.vh\"\nwire x;", opts);
  EXPECT_NE(out.find("from_include"), std::string::npos);
}

TEST(Preprocess, UnknownIncludeThrows) {
  EXPECT_THROW(preprocess("`include \"nope.vh\"\n"), ParseError);
}

TEST(Preprocess, UnterminatedIfdefThrows) {
  EXPECT_THROW(preprocess("`ifdef FOO\nwire a;\n"), ParseError);
}

TEST(Preprocess, UndefRemovesMacro) {
  EXPECT_THROW(preprocess("`define A 1\n`undef A\nwire [`A:0] x;"),
               ParseError);
}

TEST(Preprocess, TimescaleDirectiveIgnored) {
  const std::string out = preprocess("`timescale 1ns/1ps\nwire a;");
  EXPECT_NE(out.find("wire a;"), std::string::npos);
  EXPECT_EQ(out.find("timescale"), std::string::npos);
}

TEST(Preprocess, MacroInsideDisabledRegionNotDefined) {
  const std::string src =
      "`ifdef NOPE\n`define HIDDEN 1\n`endif\nwire x;";
  EXPECT_NO_THROW(preprocess(src));
  EXPECT_THROW(preprocess(src + "\n`HIDDEN"), ParseError);
}

TEST(Preprocess, DeepConditionalNestingExactOutput) {
  // 12,000 nested levels cycling through a taken `ifdef, an `ifndef whose
  // `else is taken and an `ifdef whose `else is taken; the innermost level
  // holds an untaken region with a nested `else that must stay dark.
  // Directive lines keep only their newline.
  constexpr int kDepth = 12000;
  std::string src = "`define ON\n";
  std::string want = "\n";
  const auto line = [&](const std::string& text, bool emitted) {
    src += text + "\n";
    want += (emitted ? text : std::string()) + "\n";
  };
  for (int i = 0; i < kDepth; ++i) {
    const std::string wire = "wire w" + std::to_string(i) + ";";
    switch (i % 3) {
      case 0:
        line("`ifdef ON", false);
        break;
      case 1:
        line("`ifndef ON", false);
        line("wire dead" + std::to_string(i) + ";", false);
        line("`else", false);
        break;
      default:
        line("`ifdef OFF", false);
        line("wire dead" + std::to_string(i) + ";", false);
        line("`else", false);
        break;
    }
    line(wire, true);
  }
  line("`ifdef OFF", false);
  line("`ifdef ON", false);
  line("wire hidden_then;", false);
  line("`else", false);
  line("wire hidden_else;", false);
  line("`endif", false);
  line("`else", false);
  line("wire innermost;", true);
  line("`endif", false);
  for (int i = 0; i < kDepth; ++i) line("`endif", false);
  line("wire after;", true);
  // Compared by hand: gtest's diff of two ~300 KB strings would not fit
  // in memory.
  const std::string out = preprocess(src);
  const auto first_diff =
      std::mismatch(out.begin(), out.end(), want.begin(), want.end());
  EXPECT_TRUE(out == want) << "sizes " << out.size() << " vs " << want.size()
                           << ", first difference at byte "
                           << (first_diff.first - out.begin());
}

// --- lexer -------------------------------------------------------------------

TEST(Lexer, TokenizesIdentifiersAndKeywords) {
  const auto tokens = lex("module foo endmodule");
  ASSERT_EQ(tokens.size(), 4u);  // + EOF
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "foo");
  EXPECT_EQ(tokens[2].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[3].kind, TokenKind::kEndOfFile);
}

TEST(Lexer, TokenizesSizedNumbers) {
  const auto tokens = lex("8'hFF 4'b10_10 12 3'sd2 'b0");
  EXPECT_EQ(tokens[0].text, "8'hFF");
  EXPECT_EQ(tokens[1].text, "4'b10_10");
  EXPECT_EQ(tokens[2].text, "12");
  EXPECT_EQ(tokens[3].text, "3'sd2");
  EXPECT_EQ(tokens[4].text, "'b0");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tokens[static_cast<std::size_t>(i)].kind, TokenKind::kNumber);
  }
}

TEST(Lexer, MultiCharOperatorsGreedy) {
  const auto tokens = lex("a <= b === c <<< 2 ** 3");
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[3].text, "===");
  EXPECT_EQ(tokens[5].text, "<<<");
  EXPECT_EQ(tokens[7].text, "**");
}

TEST(Lexer, TracksLineNumbers) {
  const auto tokens = lex("a\nb\n  c");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[2].loc.line, 3);
  EXPECT_EQ(tokens[2].loc.column, 3);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(lex("wire €;"), ParseError);
}

TEST(Lexer, SystemIdentifiers) {
  const auto tokens = lex("$display");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "$display");
}

// --- parser ------------------------------------------------------------------

TEST(Parser, ParsesAnsiModule) {
  const Design d = parse(
      "module m (input a, input b, output y);\n"
      "  assign y = a & b;\n"
      "endmodule\n");
  ASSERT_EQ(d.modules.size(), 1u);
  const Module& m = d.modules[0];
  EXPECT_EQ(m.name, "m");
  ASSERT_EQ(m.port_order.size(), 3u);
  EXPECT_EQ(m.port_order[2], "y");
  ASSERT_EQ(m.assigns.size(), 1u);
  EXPECT_EQ(m.assigns[0].rhs->kind, ExprKind::kBinary);
}

TEST(Parser, ParsesNonAnsiModule) {
  const Design d = parse(
      "module m (a, b, y);\n"
      "  input a, b;\n"
      "  output reg y;\n"
      "  always @(a or b) y = a | b;\n"
      "endmodule\n");
  const Module& m = d.modules[0];
  const NetDecl* y = m.find_net("y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->type, NetType::kReg);
  ASSERT_TRUE(y->direction.has_value());
  EXPECT_EQ(*y->direction, PortDirection::kOutput);
  ASSERT_EQ(m.always_blocks.size(), 1u);
  EXPECT_EQ(m.always_blocks[0].sensitivity.size(), 2u);
}

TEST(Parser, RedeclaredNetMergesIntoOneDecl) {
  const Design d = parse(
      "module m (a, y);\n"
      "  input a;\n"
      "  output [3:0] y;\n"
      "  reg y;\n"
      "  always @(a) y = a;\n"
      "endmodule\n");
  const Module& m = d.modules[0];
  ASSERT_EQ(m.nets.size(), 2u);
  const NetDecl& y = m.nets[1];
  EXPECT_EQ(y.name, "y");
  EXPECT_EQ(y.type, NetType::kReg);
  ASSERT_TRUE(y.direction.has_value());
  EXPECT_EQ(*y.direction, PortDirection::kOutput);
  EXPECT_TRUE(y.range.has_value());
}

TEST(Parser, SameNetNamesInTwoModulesStaySeparate) {
  // The second module declares the first one's names in another order, so
  // a declaration lookup that leaked across modules would merge into the
  // wrong net.
  const Design d = parse(
      "module first (input a, output y);\n"
      "  wire t;\n"
      "  assign t = ~a;\n"
      "  assign y = t;\n"
      "endmodule\n"
      "module second (t, a);\n"
      "  input t;\n"
      "  output a;\n"
      "  reg a;\n"
      "  wire y;\n"
      "  always @(t) a = t;\n"
      "endmodule\n");
  ASSERT_EQ(d.modules.size(), 2u);
  const Module& first = d.modules[0];
  ASSERT_EQ(first.nets.size(), 3u);
  EXPECT_EQ(first.nets[0].name, "a");
  EXPECT_EQ(first.nets[0].type, NetType::kWire);
  EXPECT_EQ(*first.nets[0].direction, PortDirection::kInput);
  EXPECT_EQ(first.nets[1].name, "y");
  EXPECT_EQ(*first.nets[1].direction, PortDirection::kOutput);
  EXPECT_EQ(first.nets[2].name, "t");
  EXPECT_FALSE(first.nets[2].direction.has_value());

  const Module& second = d.modules[1];
  ASSERT_EQ(second.nets.size(), 3u);
  EXPECT_EQ(second.nets[0].name, "t");
  EXPECT_EQ(second.nets[0].type, NetType::kWire);
  EXPECT_EQ(*second.nets[0].direction, PortDirection::kInput);
  EXPECT_EQ(second.nets[1].name, "a");
  EXPECT_EQ(second.nets[1].type, NetType::kReg);
  EXPECT_EQ(*second.nets[1].direction, PortDirection::kOutput);
  EXPECT_EQ(second.nets[2].name, "y");
  EXPECT_FALSE(second.nets[2].direction.has_value());
}

TEST(Parser, RepeatedAnsiPortMergesIntoFirstDecl) {
  const Design d = parse(
      "module m (input a, output a, input b, output y);\n"
      "  reg a;\n"
      "  assign y = a & b;\n"
      "endmodule\n");
  const Module& m = d.modules[0];
  ASSERT_EQ(m.nets.size(), 4u);
  EXPECT_EQ(m.nets[0].name, "a");
  EXPECT_EQ(m.nets[0].type, NetType::kReg);
  EXPECT_EQ(*m.nets[0].direction, PortDirection::kInput);
  EXPECT_EQ(m.nets[1].name, "a");
  EXPECT_EQ(m.nets[1].type, NetType::kWire);
  EXPECT_EQ(*m.nets[1].direction, PortDirection::kOutput);
  EXPECT_EQ(m.find_net("a"), &m.nets[0]);
}

TEST(Parser, ParsesPaperAdderExample) {
  // Adapted from Fig. 1 of the paper (lowercased keywords).
  const Design d = parse(
      "module ADDER(\n"
      "  input Num1,\n  input Num2,\n  input Cin,\n"
      "  output reg Sum,\n  output reg Cout );\n"
      "always @(Num1, Num2, Cin) begin\n"
      "  Sum <= ((Num1 ^ Num2) ^ Cin);\n"
      "  Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));\n"
      "end\n"
      "endmodule\n");
  const Module& m = d.modules[0];
  EXPECT_EQ(m.name, "ADDER");
  ASSERT_EQ(m.always_blocks.size(), 1u);
  const Stmt& body = *m.always_blocks[0].body;
  ASSERT_EQ(body.kind, StmtKind::kBlock);
  ASSERT_EQ(body.children.size(), 2u);
  EXPECT_EQ(body.children[0]->kind, StmtKind::kNonblockingAssign);
}

TEST(Parser, ParsesGatePrimitives) {
  const Design d = parse(
      "module g (a, b, y);\n"
      "  input a, b;\n  output y;\n"
      "  wire t1, t2;\n"
      "  xor (t1, a, b);\n"
      "  and g1 (t2, a, b);\n"
      "  or (y, t1, t2);\n"
      "endmodule\n");
  const Module& m = d.modules[0];
  ASSERT_EQ(m.gates.size(), 3u);
  EXPECT_EQ(m.gates[0].gate_type, "xor");
  EXPECT_EQ(m.gates[1].instance_name, "g1");
  EXPECT_EQ(m.gates[1].terminals.size(), 3u);
}

TEST(Parser, ParsesModuleInstantiationNamed) {
  const Design d = parse(
      "module child (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module top (input a, output b);\n"
      "  child u1 (.x(a), .y(b));\n"
      "endmodule\n");
  const Module* top = d.find_module("top");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->instances.size(), 1u);
  EXPECT_EQ(top->instances[0].module_name, "child");
  EXPECT_EQ(top->instances[0].connections[0].port_name, "x");
}

TEST(Parser, ParsesParametersAndOverrides) {
  const Design d = parse(
      "module child;\n  parameter W = 4;\n  wire [W-1:0] x;\nendmodule\n"
      "module top;\n  child #(.W(8)) u1 ();\nendmodule\n");
  const Module* top = d.find_module("top");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->instances[0].parameter_overrides.size(), 1u);
  EXPECT_EQ(top->instances[0].parameter_overrides[0].port_name, "W");
}

TEST(Parser, ParsesCaseStatement) {
  const Design d = parse(
      "module c (input [1:0] s, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      2'b00, 2'b01: y = 1'b0;\n"
      "      2'b10: y = 1'b1;\n"
      "      default: y = 1'b0;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n");
  const Stmt& body = *d.modules[0].always_blocks[0].body;
  ASSERT_EQ(body.kind, StmtKind::kBlock);
  const Stmt& case_stmt = *body.children[0];
  ASSERT_EQ(case_stmt.kind, StmtKind::kCase);
  ASSERT_EQ(case_stmt.case_items.size(), 3u);
  EXPECT_EQ(case_stmt.case_items[0].labels.size(), 2u);
  EXPECT_TRUE(case_stmt.case_items[2].labels.empty());  // default
}

TEST(Parser, ParsesTernaryConcatRepeatSelect) {
  const Design d = parse(
      "module e (input [7:0] a, input s, output [7:0] y, output [3:0] z);\n"
      "  assign y = s ? {a[3:0], a[7:4]} : {2{a[1:0], a[0], a[1]}};\n"
      "  assign z = a[5:2];\n"
      "endmodule\n");
  EXPECT_EQ(d.modules[0].assigns.size(), 2u);
}

TEST(Parser, RejectsUnsupportedConstructs) {
  EXPECT_THROW(parse("module m;\n  generate\nendmodule\n"), ParseError);
  EXPECT_THROW(
      parse("module m (input c, output reg q);\n"
            "  always @(c) for (;;) q = 1;\nendmodule\n"),
      ParseError);
}

TEST(Parser, ReportsErrorLocation) {
  try {
    (void)parse("module m;\n  assign = 1;\nendmodule\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.location().line, 2);
  }
}

TEST(Parser, ParsesSensitivityEdges) {
  const Design d = parse(
      "module f (input clk, input rst, output reg q);\n"
      "  always @(posedge clk or negedge rst) q <= ~q;\n"
      "endmodule\n");
  const AlwaysBlock& ab = d.modules[0].always_blocks[0];
  ASSERT_EQ(ab.sensitivity.size(), 2u);
  EXPECT_EQ(ab.sensitivity[0].edge, EdgeKind::kPosedge);
  EXPECT_EQ(ab.sensitivity[1].edge, EdgeKind::kNegedge);
}

TEST(Parser, SkipsSystemTasksAndDelays) {
  const Design d = parse(
      "module t (input clk, output reg q);\n"
      "  always @(posedge clk) begin\n"
      "    #1 q <= 1'b1;\n"
      "    $display(\"hello\", q);\n"
      "  end\n"
      "endmodule\n");
  const Stmt& body = *d.modules[0].always_blocks[0].body;
  ASSERT_EQ(body.children.size(), 2u);
  EXPECT_EQ(body.children[1]->kind, StmtKind::kNull);
}

TEST(Parser, WireWithInitBecomesAssign) {
  const Design d = parse(
      "module w (input a, output y);\n"
      "  wire t = ~a;\n"
      "  assign y = t;\n"
      "endmodule\n");
  const Module& m = d.modules[0];
  const NetDecl* t = m.find_net("t");
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t->init, nullptr);
}

// --- constant folding ---------------------------------------------------------

TEST(ConstFold, FoldsArithmetic) {
  const Design d = parse(
      "module m;\n  parameter A = 3 + 4 * 2;\nendmodule\n");
  const auto value = fold_constant(*d.modules[0].params[0].value);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 11);
}

TEST(ConstFold, FoldsBasedLiterals) {
  Expr e;
  e.kind = ExprKind::kNumber;
  e.text = "8'hFF";
  EXPECT_EQ(fold_constant(e).value_or(-1), 255);
  e.text = "4'b1010";
  EXPECT_EQ(fold_constant(e).value_or(-1), 10);
  e.text = "8'hxz";
  EXPECT_FALSE(fold_constant(e).has_value());
}

TEST(ConstFold, UsesEnvironment) {
  Expr e;
  e.kind = ExprKind::kIdentifier;
  e.text = "W";
  EXPECT_EQ(fold_constant(e, {{"W", 16}}).value_or(-1), 16);
  EXPECT_FALSE(fold_constant(e).has_value());
}

// --- elaboration -----------------------------------------------------------------

TEST(Elaborate, FlattensHierarchy) {
  const Design d = parse(
      "module inv (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module top (input a, output b);\n"
      "  wire mid;\n"
      "  inv u1 (.x(a), .y(mid));\n"
      "  inv u2 (.x(mid), .y(b));\n"
      "endmodule\n");
  const Module flat = elaborate(d, "top");
  EXPECT_TRUE(flat.instances.empty());
  // Two port-connection assigns per instance + one body assign each.
  EXPECT_EQ(flat.assigns.size(), 6u);
  EXPECT_NE(flat.find_net("u1.y"), nullptr);
  EXPECT_NE(flat.find_net("u2.x"), nullptr);
}

TEST(Elaborate, ResolvesParameters) {
  const Design d = parse(
      "module child (input [7:0] x, output [7:0] y);\n"
      "  parameter K = 1;\n"
      "  assign y = x + K;\n"
      "endmodule\n"
      "module top (input [7:0] a, output [7:0] b);\n"
      "  child #(.K(5)) u1 (.x(a), .y(b));\n"
      "endmodule\n");
  const Module flat = elaborate(d, "top");
  bool found_const_5 = false;
  for (const ContinuousAssign& ca : flat.assigns) {
    const std::string text = to_verilog(*ca.rhs);
    if (text.find('5') != std::string::npos) found_const_5 = true;
  }
  EXPECT_TRUE(found_const_5);
}

TEST(Elaborate, PositionalConnections) {
  const Design d = parse(
      "module buf2 (input x, output y);\n  assign y = x;\nendmodule\n"
      "module top (input a, output b);\n  buf2 u (a, b);\nendmodule\n");
  const Module flat = elaborate(d, "top");
  EXPECT_TRUE(flat.instances.empty());
  EXPECT_NE(flat.find_net("u.x"), nullptr);
}

TEST(Elaborate, DetectsRecursion) {
  const Design d = parse(
      "module a (input x, output y);\n  a u (.x(x), .y(y));\nendmodule\n");
  EXPECT_THROW(elaborate(d, "a"), ParseError);
}

TEST(Elaborate, InferTopModule) {
  const Design d = parse(
      "module leaf (input x, output y);\n  assign y = x;\nendmodule\n"
      "module root (input a, output b);\n"
      "  leaf u (.x(a), .y(b));\nendmodule\n");
  EXPECT_EQ(infer_top_module(d), "root");
}

TEST(Elaborate, UnknownModuleThrows) {
  const Design d = parse(
      "module top;\n  ghost u ();\nendmodule\n");
  EXPECT_THROW(elaborate(d, "top"), ParseError);
}

TEST(Elaborate, InoutUnsupported) {
  const Design d = parse(
      "module pad (inout p);\nendmodule\n"
      "module top (input a);\n  wire w;\n  pad u (.p(w));\nendmodule\n");
  EXPECT_THROW(elaborate(d, "top"), ParseError);
}

}  // namespace
}  // namespace gnn4ip::verilog
