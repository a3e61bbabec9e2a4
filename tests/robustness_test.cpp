// Robustness sweep: randomly mutated Verilog sources must either parse
// or raise verilog::ParseError — never crash, hang, or throw anything
// else. The DFG pipeline on top gets the same guarantee (ParseError or
// a valid graph).
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "data/rtl_designs.h"
#include "dfg/pipeline.h"
#include "graph/algorithms.h"
#include "util/rng.h"
#include "verilog/parser.h"
#include "verilog/preprocess.h"

namespace gnn4ip {
namespace {

const std::string& seed_source() {
  static const std::string src = data::gen_uart_tx({0, 1});
  return src;
}

std::string mutate(const std::string& source, util::Rng& rng,
                   int mutations) {
  std::string out = source;
  static const char kChars[] =
      "abcdefgXYZ0189_;:,.(){}[]<>=+-*/&|^~!?@#'\"\\ \n";
  for (int m = 0; m < mutations; ++m) {
    if (out.empty()) break;
    const std::size_t pos = rng.next_below(out.size());
    switch (rng.next_below(3)) {
      case 0:  // replace
        out[pos] = kChars[rng.next_below(sizeof(kChars) - 1)];
        break;
      case 1:  // delete
        out.erase(pos, 1);
        break;
      default:  // insert
        out.insert(pos, 1, kChars[rng.next_below(sizeof(kChars) - 1)]);
        break;
    }
  }
  return out;
}

class MutationTest : public ::testing::TestWithParam<int> {};

TEST_P(MutationTest, ParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const int mutations = 1 + GetParam() % 8;
  const std::string mutated = mutate(seed_source(), rng, mutations);
  try {
    const verilog::Design d = verilog::parse(mutated);
    EXPECT_GE(d.modules.size(), 0u);  // parsed fine — also acceptable
  } catch (const verilog::ParseError&) {
    // expected failure mode
  }
  // Anything else (ContractViolation, bad_alloc, segfault) fails the test.
}

TEST_P(MutationTest, PipelineNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1031 + 7);
  const int mutations = 1 + GetParam() % 5;
  const std::string mutated = mutate(seed_source(), rng, mutations);
  try {
    const graph::Digraph g = dfg::extract_dfg(mutated);
    EXPECT_GT(g.num_nodes(), 0u);
  } catch (const verilog::ParseError&) {
    // expected failure mode
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationTest, ::testing::Range(0, 25));

// Whole-corpus sanity: every generated source across a spread of seeds
// round-trips through preprocess+lex (structure-level smoke, cheap).
TEST(Robustness, EveryFamilyLexesAtManySeeds) {
  for (const data::RtlFamily& family : data::rtl_families()) {
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
      const std::string src =
          family.generate({static_cast<int>(seed % family.num_styles),
                           seed});
      EXPECT_NO_THROW({
        const std::string preprocessed = verilog::preprocess(src);
        const auto tokens = verilog::lex(preprocessed);
        EXPECT_GT(tokens.size(), 20u) << family.name;
      }) << family.name << " seed " << seed;
    }
  }
}

// Deep-but-valid nesting: expression parser must handle heavy
// parenthesization without blowing the stack at sane depths.
TEST(Robustness, DeepExpressionNesting) {
  std::string expr = "a";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " ^ b)";
  const std::string src = "module m (input a, input b, output y);\n"
                          "  assign y = " + expr + ";\nendmodule\n";
  const graph::Digraph g = dfg::extract_dfg(src);
  EXPECT_GT(g.num_nodes(), 200u);
}

// `t = a;` and then n x `t = t ^ b;` in one `always @(*)` block. Each
// statement's value shares the one before it, so the DFG (a, b, t, y and
// one xor per statement) must build in time linear in n, and merge must
// not recurse on the value's depth of n levels.
TEST(Robustness, ChainedBlockingAssignsStayLinear) {
  for (const int n : {10'000, 40'000}) {
    std::string src =
        "module m (input a, input b, output y);\n"
        "  reg t;\n"
        "  always @(*) begin\n"
        "    t = a;\n";
    for (int i = 0; i < n; ++i) src += "    t = t ^ b;\n";
    src += "  end\n  assign y = t;\nendmodule\n";
    const auto start = std::chrono::steady_clock::now();
    const graph::Digraph g = dfg::extract_dfg(src);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_EQ(g.num_nodes(), static_cast<std::size_t>(n) + 4);
    // ~15 ms per 10,000 statements in Release; the bound leaves room for
    // sanitizer builds.
    EXPECT_LT(elapsed.count(), 2.0 * n / 10'000) << n << " statements";
  }
}

// --- parser nesting bound ----------------------------------------------------
//
// Each source below nests exactly `depth` levels as the parser counts
// them: one per expression, statement, prefix operator and lvalue
// concatenation it recurses into.

std::string module_with(const std::string& body) {
  return "module m (input a, input b, input c, output y);\n" + body +
         "endmodule\n";
}

/// `assign y = (((a ^ b) ^ b) ... ^ b);`: the right-hand side is a level
/// and each parenthesis one more.
std::string nested_parentheses(int depth) {
  std::string expr = "a";
  for (int level = 1; level < depth; ++level) expr = "(" + expr + " ^ b)";
  return module_with("  assign y = " + expr + ";\n");
}

/// `assign y = ~ ~ ... ~ a;`: the right-hand side and each `~`.
std::string not_chain(int depth) {
  std::string expr;
  for (int level = 1; level < depth; ++level) expr += "~ ";
  return module_with("  assign y = " + expr + "a;\n");
}

/// `assign y = c ? a : c ? a : ... : b;`: the right-hand side and each
/// else-arm.
std::string ternary_else_chain(int depth) {
  std::string expr;
  for (int level = 1; level < depth; ++level) expr += "c ? a : ";
  return module_with("  assign y = " + expr + "b;\n");
}

/// `assign {{...{y}...}} = a;`: each brace.
std::string lvalue_concats(int depth) {
  const auto n = static_cast<std::size_t>(depth);
  return module_with("  assign " + std::string(n, '{') + "y" +
                     std::string(n, '}') + " = a;\n");
}

/// `always @(*) if (c) begin if (c) begin ... y = a; end ... end`: each
/// `if` and `begin`, then the innermost assignment and its right-hand
/// side.
std::string nested_statements(int depth) {
  std::string body = "  always @(*)\n";
  std::string ends;
  for (int level = 2; level < depth; ++level) {
    if (level % 2 == 0) {
      body += "if (c) ";
    } else {
      body += "begin ";
      ends += " end";
    }
  }
  return module_with(body + "y = a;" + ends + "\n");
}

struct NestedSource {
  const char* name;
  std::string (*build)(int depth);
};

class NestingBoundTest : public ::testing::TestWithParam<NestedSource> {};

TEST_P(NestingBoundTest, ExtractsAtTheBound) {
  const graph::Digraph g =
      dfg::extract_dfg(GetParam().build(verilog::kMaxNestingDepth));
  const graph::NodeId y = g.find_by_name("y");
  ASSERT_NE(y, graph::kInvalidNode);
  EXPECT_EQ(g.out_degree(y), 1u);  // its driver
}

TEST_P(NestingBoundTest, OneLevelDeeperThrows) {
  EXPECT_THROW(
      (void)verilog::parse(GetParam().build(verilog::kMaxNestingDepth + 1)),
      verilog::ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, NestingBoundTest,
    ::testing::Values(NestedSource{"parentheses", nested_parentheses},
                      NestedSource{"not_chain", not_chain},
                      NestedSource{"ternary_else_chain", ternary_else_chain},
                      NestedSource{"lvalue_concats", lvalue_concats},
                      NestedSource{"statements", nested_statements}),
    [](const ::testing::TestParamInfo<NestedSource>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Robustness, HundredThousandParenthesesAreAParseError) {
  const std::string parens(100'000, '(');
  const std::string src = module_with(
      "  assign y = " + parens + "a" + std::string(parens.size(), ')') +
      ";\n");
  try {
    (void)verilog::parse(src);
    FAIL() << "100,000 nested parentheses parsed";
  } catch (const verilog::ParseError& e) {
    // Thrown at the parenthesis that opens the first level too many:
    // the right-hand side starts at column 14 and is level 1.
    EXPECT_EQ(e.location().line, 2);
    EXPECT_EQ(e.location().column, 14 + verilog::kMaxNestingDepth);
  }
}

TEST(Robustness, ManyModulesManyInstances) {
  // 40 modules chained through instantiation still elaborate fine.
  std::string src;
  src += "module stage0 (input x, output y);\n  assign y = ~x;\nendmodule\n";
  for (int i = 1; i < 40; ++i) {
    src += "module stage" + std::to_string(i) +
           " (input x, output y);\n  wire t;\n  stage" +
           std::to_string(i - 1) +
           " u (.x(x), .y(t));\n  assign y = ~t;\nendmodule\n";
  }
  const graph::Digraph g = dfg::extract_dfg(src);
  EXPECT_GT(g.num_nodes(), 80u);
  EXPECT_EQ(graph::num_weak_components(g), 1);
}

TEST(Robustness, EmptyAndWhitespaceOnlySources) {
  EXPECT_NO_THROW(verilog::parse(""));
  EXPECT_NO_THROW(verilog::parse("\n\n  \t\n// just a comment\n"));
  EXPECT_THROW(dfg::extract_dfg(""), verilog::ParseError);
}

}  // namespace
}  // namespace gnn4ip
