// Verilog frontend tests: preprocessor, lexer, parser, elaboration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "golden_corpus.h"
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

TEST(Preprocess, UnknownIncludeThrows) {
  EXPECT_THROW(preprocess("`include \"nope.vh\"\n"), ParseError);
}

TEST(Preprocess, UnterminatedIfdefThrows) {
  EXPECT_THROW(preprocess("`ifdef FOO\nwire a;\n"), ParseError);
}

struct PreprocessErrorCase {
  std::string source;
  std::string message;
  int line;
  int column;
};

TEST(Preprocess, ErrorsPinned) {
  const std::vector<PreprocessErrorCase> cases = {
      {"wire a;\n  `include \"defs.vh\"\n",
       "`include \"defs.vh\" is not supported: submit one self-contained "
       "source",
       2, 3},
      {"`define ON\n`ifdef ON\n`include \"defs.vh\"\n`endif\n",
       "`include \"defs.vh\" is not supported: submit one self-contained "
       "source",
       3, 1},
      {"wire y;\nassign y = `FOO_VALUE;\n", "undefined macro `FOO_VALUE", 2,
       12},
      {"`define A 1\n`undef\nwire a;\n", "`undef requires a macro name", 2,
       1},
      {"`ifdef NOPE\n`undef // no name\n`endif\n",
       "`undef requires a macro name", 2, 1},
      // `elsif is not implemented: rejected in an inactive group too,
      // where skipping it would let the `else take the wrong branch.
      {"`define B\n`ifdef A\nwire x;\n`elsif B\nwire y;\n`else\nwire z;\n"
       "`endif\n",
       "`elsif is not supported", 4, 1},
      {"`define A\n`ifdef A\nwire x;\n  `elsif B\nwire y;\n`endif\n",
       "`elsif is not supported", 4, 3},
  };
  for (const PreprocessErrorCase& c : cases) {
    try {
      (void)preprocess(c.source);
      ADD_FAILURE() << "no error for: " << c.source;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.message(), c.message) << c.source;
      EXPECT_EQ(e.location().line, c.line) << c.source;
      EXPECT_EQ(e.location().column, c.column) << c.source;
    }
  }
}

// An inactive group is ignored (IEEE 1364-2005 §19.4): its macro uses
// are not looked up, and an `include there is skipped. Directive lines
// keep only their newline.
TEST(Preprocess, InactiveRegionSkipsMacroUsesAndIncludeExactOutput) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"`ifdef USE_FOO\nassign y = `FOO_VALUE;\n`endif\nwire x;",
       "\n\n\nwire x;"},
      {"`ifdef SIM_ONLY\n`pragma protect begin\n`endif\nwire x;",
       "\n\n\nwire x;"},
      {"`ifndef SYNTH\nwire a;\n`else\n`include \"defs.vh\"\n`endif\nwire x;",
       "\nwire a;\n\n\n\nwire x;"},
  };
  for (const auto& [source, want] : cases) {
    EXPECT_EQ(preprocess(source), want) << source;
  }
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

TEST(Preprocess, NestedMacrosRescanExactOutput) {
  EXPECT_EQ(preprocess("`define X0 a\n"
                       "`define X1 `X0 ^ `X0\n"
                       "`define X2 (`X1) & `X1 // both\n"
                       "assign y = `X2;\n"),
            "\n\n\nassign y = (a ^ a) & a ^ a ;\n");
}

TEST(Preprocess, SelfReferentialMacroIsAnError) {
  try {
    (void)preprocess("`define X `X\nwire `X;\n");
    FAIL() << "self-referential macro expanded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.message(), "macro `X nests more than 64 expansions deep");
    EXPECT_EQ(e.location().line, 2);
  }
}

// `X0 is 8 bytes and each `Xk uses `X(k-1) twice, so `X40 would paste a
// terabyte. The byte cap stops it after about a megabyte of bodies.
TEST(Preprocess, MacroDoublingChainHitsByteCap) {
  std::string src = "`define X0 abcdefgh\n";
  for (int k = 1; k <= 40; ++k) {
    src += "`define X" + std::to_string(k) + " `X" + std::to_string(k - 1) +
           " `X" + std::to_string(k - 1) + "\n";
  }
  src += "wire `X40;\n";
  try {
    (void)preprocess(src);
    FAIL() << "doubling chain expanded";
  } catch (const ParseError& e) {
    EXPECT_NE(e.message().find(" expands past 1048576 bytes"),
              std::string::npos)
        << e.message();
    EXPECT_EQ(e.message().rfind("macro `X", 0), 0u) << e.message();
  }
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

TEST(Lexer, EveryKeywordClassified) {
  const std::vector<std::string> keywords = {
      "module",   "endmodule",   "input",      "output",   "inout",
      "wire",     "reg",         "assign",     "always",   "initial",
      "begin",    "end",         "if",         "else",     "case",
      "casex",    "casez",       "endcase",    "default",  "posedge",
      "negedge",  "parameter",   "localparam", "integer",  "signed",
      "and",      "or",          "xor",        "xnor",     "nand",
      "nor",      "not",         "buf",        "for",      "while",
      "function", "endfunction", "task",       "endtask",  "generate",
      "endgenerate", "genvar",   "supply0",    "supply1",  "tri"};
  for (const std::string& word : keywords) {
    const auto tokens = lex(word);
    ASSERT_EQ(tokens.size(), 2u) << word;
    EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword) << word;
    EXPECT_EQ(tokens[0].text, word);
    // A keyword's prefix, extension or capitalization is an identifier.
    for (const std::string& near :
         {word.substr(0, word.size() - 1), word + "_", word + "1",
          std::string(1, static_cast<char>(word[0] - 'a' + 'A')) +
              word.substr(1)}) {
      if (near.empty() || std::find(keywords.begin(), keywords.end(),
                                    near) != keywords.end()) {
        continue;
      }
      const auto near_tokens = lex(near);
      EXPECT_EQ(near_tokens[0].kind, TokenKind::kIdentifier) << near;
    }
  }
}

/// The message, line and column of the ParseError lex(source) throws.
struct LexErrorCase {
  std::string source;
  std::string message;
  int line = 0;
  int column = 0;
};

TEST(Lexer, ErrorsPinned) {
  const std::vector<LexErrorCase> cases = {
      {"wire a;\n  a ` b", "unexpected character '`'", 2, 5},
      {"wire \xe2\x82\xac;", "unexpected character '\xe2'", 1, 6},
      {"x = 'q1", "malformed based literal", 1, 5},
      {"x = 8'sq1", "malformed based literal", 1, 6},
      {"s = \"abc\nd\";", "unterminated string literal", 1, 5},
      {"s = \"abc", "unterminated string literal", 1, 5},
      {"a \\ b", "empty escaped identifier", 1, 3},
      {"a \\", "empty escaped identifier", 1, 3},
  };
  for (const LexErrorCase& c : cases) {
    try {
      (void)lex(c.source);
      ADD_FAILURE() << "no error for: " << c.source;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.message(), c.message) << c.source;
      EXPECT_EQ(e.location().line, c.line) << c.source;
      EXPECT_EQ(e.location().column, c.column) << c.source;
    }
  }
}

TEST(Lexer, BackslashNewlineInsideStringIsKept) {
  const auto tokens = lex("\"a\\\nb\" c");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "a\\\nb");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[0].loc.column, 1);
  EXPECT_EQ(tokens[1].text, "c");
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[1].loc.column, 4);
}

/// Every token of every golden-corpus source, preprocessed and lexed:
/// kind, text bytes, line and column, in stream order.
std::uint64_t token_hash(const std::string& src) {
  const std::string preprocessed = preprocess(src);
  const auto tokens = lex(preprocessed);
  golden::Fnv1a h;
  h.u64(tokens.size());
  for (const Token& tok : tokens) {
    h.u64(static_cast<std::uint64_t>(tok.kind));
    h.str(tok.text);
    h.u64(static_cast<std::uint64_t>(tok.loc.line));
    h.u64(static_cast<std::uint64_t>(tok.loc.column));
  }
  return h.value();
}

// Recorded before the lexer was table-driven; any change to these
// constants means the parser may see a different token stream.
const std::map<std::string, std::uint64_t> kTokenHashes = {
    {"iscas/c432", 0xdedc534c89c936c5ULL},
    {"iscas_obf/c432", 0xa27258ee4b568feULL},
    {"iscas/c499", 0xbdda31cfcd9edb0aULL},
    {"iscas_obf/c499", 0x982eed0c548830c7ULL},
    {"iscas/c880", 0xdcc7ba0fb58a6782ULL},
    {"iscas_obf/c880", 0xb0eb88911b4a91faULL},
    {"iscas/c1355", 0xa78e8a375f2ffa3eULL},
    {"iscas_obf/c1355", 0xfe899e0522016cdaULL},
    {"iscas/c1908", 0xddb656f0af02ab0bULL},
    {"iscas_obf/c1908", 0x642cf2eb586abff3ULL},
    {"iscas/c6288", 0x89cbb30df9e3ae33ULL},
    {"iscas_obf/c6288", 0x7259a5d8faee54afULL},
    {"netlist/nl_adder8", 0xebb8b233db0bdd0fULL},
    {"netlist/nl_sub8", 0x8ab97c80d1eac8e6ULL},
    {"netlist/nl_alu4", 0xf0ef64ffaed865c9ULL},
    {"netlist/nl_mult4", 0x77114318ea3703e3ULL},
    {"netlist/nl_parity16", 0x7dc88fb2749e90dfULL},
    {"netlist/nl_cmp8", 0xc141a6a6146f913cULL},
    {"netlist/nl_dec3to8", 0x3e2f97869efcf628ULL},
    {"netlist/nl_mux8", 0xe697437a2cece307ULL},
    {"netlist/nl_gray8", 0xf3f46407559e7e16ULL},
    {"netlist/nl_prio8", 0xea9286c7ac59bf2aULL},
    {"netlist/nl_ham12", 0xa7c3fb17b5fce7f9ULL},
    {"rtl/adder/0", 0x9d5cb958468c8b6fULL},
    {"rtl/adder/1", 0x5fbca9faf76b1b97ULL},
    {"rtl/adder/2", 0xe4b0e5c35a597780ULL},
    {"rtl/alu/0", 0x29e33c20c25d37f0ULL},
    {"rtl/alu/1", 0x29e33c20c25d37f0ULL},
    {"rtl/counter/0", 0xf21352b9cc2a23deULL},
    {"rtl/counter/1", 0x9b3c2cc0a2c91042ULL},
    {"rtl/gray_counter/0", 0x47f7fc067c31530dULL},
    {"rtl/gray_counter/1", 0x719649dd4ec97b97ULL},
    {"rtl/lfsr/0", 0x555803c326d481b7ULL},
    {"rtl/lfsr/1", 0x46f776380f0b94b9ULL},
    {"rtl/crc8/0", 0xbfc74e7c0e1a45d3ULL},
    {"rtl/crc8/1", 0x61ccb43722d72af4ULL},
    {"rtl/parity/0", 0xdf14e1f348c94a92ULL},
    {"rtl/parity/1", 0xaae84bd643a096b3ULL},
    {"rtl/shift_reg/0", 0x377c99124b6a51ffULL},
    {"rtl/shift_reg/1", 0xcea656056590e326ULL},
    {"rtl/fifo_ctrl/0", 0x1748b2c352814ddaULL},
    {"rtl/fifo_ctrl/1", 0x69995a55c72135b1ULL},
    {"rtl/uart_tx/0", 0x1970c7d2dafa2577ULL},
    {"rtl/uart_tx/1", 0x48e32c1f89fa5120ULL},
    {"rtl/uart_rx/0", 0x56dbd65dfcc91490ULL},
    {"rtl/uart_rx/1", 0xa91765f9253da4ULL},
    {"rtl/spi_master/0", 0x3a4e41119987fd80ULL},
    {"rtl/spi_master/1", 0x8e77428b1d3b8c70ULL},
    {"rtl/pwm/0", 0x5926e378ab59ebedULL},
    {"rtl/pwm/1", 0xbc4c7e8e9d50333aULL},
    {"rtl/traffic_fsm/0", 0x321354c675e37aaULL},
    {"rtl/traffic_fsm/1", 0x1541160f940bd0e8ULL},
    {"rtl/seq_detector/0", 0xddab70af0324b765ULL},
    {"rtl/seq_detector/1", 0x95e7dd99244f25a7ULL},
    {"rtl/multiplier/0", 0xc2f2e42198e9830dULL},
    {"rtl/multiplier/1", 0xe397e31d4aa365f2ULL},
    {"rtl/hamming_enc/0", 0xdd6bbafdc504a0a3ULL},
    {"rtl/hamming_enc/1", 0xce1e75d14f3a1248ULL},
    {"rtl/fpa/0", 0x6b1a8c09362f6bbeULL},
    {"rtl/fpa/1", 0x11703717ca805ecdULL},
    {"rtl/aes_round/0", 0x29181fba99bea1fcULL},
    {"rtl/aes_round/1", 0x7e1b644c3216229fULL},
    {"rtl/mips_single/0", 0x81179889fd1118f6ULL},
    {"rtl/mips_single/1", 0x81179889fd1118f6ULL},
    {"rtl/mips_pipeline/0", 0x3a0cba2fa3633a0dULL},
    {"rtl/mips_pipeline/1", 0x3a0cba2fa3633a0dULL},
    {"rtl/mips_multicycle/0", 0xdaee38efc81dbdb9ULL},
    {"rtl/mips_multicycle/1", 0xdaee38efc81dbdb9ULL},
    {"rtl/barrel_shifter/0", 0x54b014c310f0622dULL},
    {"rtl/barrel_shifter/1", 0xc61074686c6b891dULL},
    {"rtl/bcd_counter/0", 0x4fe4dd62af25df27ULL},
    {"rtl/bcd_counter/1", 0x788c8dfeb87fa244ULL},
    {"rtl/johnson_counter/0", 0x87b5814321f59dfeULL},
    {"rtl/johnson_counter/1", 0x7c89f13fd93d6636ULL},
    {"rtl/clock_divider/0", 0xd5a22573f414caf2ULL},
    {"rtl/clock_divider/1", 0x5b697cd7519e3f1ULL},
    {"rtl/debouncer/0", 0x908390baa26e8047ULL},
    {"rtl/debouncer/1", 0x240525a21c166b34ULL},
    {"rtl/majority_voter/0", 0x86a376e2b7723327ULL},
    {"rtl/majority_voter/1", 0xd7e0575d7722905dULL},
    {"rtl/popcount/0", 0x3924f2591a575d7dULL},
    {"rtl/popcount/1", 0xa3caf6ddf7abf41dULL},
    {"rtl/divider/0", 0xf0ee6355edc13b82ULL},
    {"rtl/divider/1", 0xc1544c2373685718ULL},
    {"rtl/rr_arbiter/0", 0x74890f99a088a22eULL},
    {"rtl/rr_arbiter/1", 0xf1597febffc3778bULL},
    {"rtl/moving_average/0", 0x9bd91a81120d9630ULL},
    {"rtl/moving_average/1", 0x11c47f85ca13d92eULL},
    {"rtl/sqrt/0", 0x882bd48feaa196e7ULL},
    {"rtl/sqrt/1", 0xc2bff069d84b204ULL},
};

TEST(LexerGolden, TokenStreamsByteIdentical) {
  const auto designs = golden::designs();
  EXPECT_EQ(designs.size(), kTokenHashes.size());
  for (const auto& [label, src] : designs) {
    const std::uint64_t hash = token_hash(src);
    const auto it = kTokenHashes.find(label);
    if (it == kTokenHashes.end()) {
      ADD_FAILURE() << "no golden hash: {\"" << label << "\", 0x" << std::hex
                    << hash << "ULL},";
      continue;
    }
    EXPECT_EQ(hash, it->second) << label;
  }
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
  try {
    (void)elaborate(d, "a");
    FAIL() << "a module that instantiates itself elaborated";
  } catch (const ParseError& e) {
    // Not "unknown module": the top's name stays findable in the design
    // after its items move into the flat module.
    EXPECT_EQ(e.message(), "recursive instantiation of module a");
  }
}

TEST(Elaborate, ImplicitNetsFollowDeclaredNetsInNameOrder) {
  // First used in the order zz, ss, mm, gg, kk: by an assign, a
  // sensitivity list, an always body, a gate and an instance connection.
  // P is a parameter and `init_only` appears only in a net initializer,
  // so neither becomes a net.
  const Design d = parse(
      "module leaf (input x, output y);\n  assign y = ~x;\nendmodule\n"
      "module top (input a, output y);\n"
      "  parameter P = 2;\n"
      "  wire w = init_only;\n"
      "  assign zz = a & P;\n"
      "  always @(ss) mm = a;\n"
      "  and g (gg, a, w);\n"
      "  leaf u (.x(kk), .y(y));\n"
      "endmodule\n");
  const Module flat = elaborate(d, "top");
  std::vector<std::string> names;
  for (const NetDecl& net : flat.nets) names.push_back(net.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "y", "w", "gg", "kk", "mm",
                                             "ss", "zz", "u.x", "u.y"}));
  for (std::size_t i = 3; i < 8; ++i) {
    EXPECT_EQ(flat.nets[i].type, NetType::kWire) << flat.nets[i].name;
    EXPECT_FALSE(flat.nets[i].direction.has_value()) << flat.nets[i].name;
    EXPECT_FALSE(flat.nets[i].range.has_value()) << flat.nets[i].name;
  }
}

TEST(Elaborate, FlatModuleOrder) {
  // Nets: the top's declared nets in declaration order with their
  // directions, then each instance's, prefixed and without directions.
  // Assigns: the top's initializers, its body assigns, then per instance
  // the port bindings and the instance's own initializers and assigns.
  const Design d = parse(
      "module child (input x, output y);\n"
      "  parameter K = 1;\n"
      "  wire t = x ^ K;\n"
      "  and g (y, t, x);\n"
      "endmodule\n"
      "module top (input a, input b, output y, output z);\n"
      "  wire m = a | b;\n"
      "  assign z = ~m;\n"
      "  child #(.K(3)) u (.x(m), .y(y));\n"
      "endmodule\n");
  const Module flat = elaborate(d, "top");
  EXPECT_EQ(flat.name, "top");
  EXPECT_EQ(flat.port_order, (std::vector<std::string>{"a", "b", "y", "z"}));
  std::vector<std::string> nets;
  for (const NetDecl& net : flat.nets) {
    std::string line = net.name;
    if (net.direction == PortDirection::kInput) line += " input";
    if (net.direction == PortDirection::kOutput) line += " output";
    nets.push_back(line);
    EXPECT_EQ(net.init, nullptr) << net.name;
  }
  EXPECT_EQ(nets, (std::vector<std::string>{"a input", "b input", "y output",
                                            "z output", "m", "u.x", "u.y",
                                            "u.t"}));
  std::vector<std::string> assigns;
  for (const ContinuousAssign& ca : flat.assigns) {
    assigns.push_back(to_verilog(*ca.lhs) + " = " + to_verilog(*ca.rhs));
  }
  EXPECT_EQ(assigns, (std::vector<std::string>{"m = (a | b)", "z = (~m)",
                                               "u.x = m", "y = u.y",
                                               "u.t = (u.x ^ 3)"}));
  ASSERT_EQ(flat.gates.size(), 1u);
  EXPECT_EQ(flat.gates[0].gate_type, "and");
  EXPECT_EQ(flat.gates[0].instance_name, "u.g");
  std::vector<std::string> terminals;
  for (const ExprPtr& t : flat.gates[0].terminals) {
    terminals.push_back(to_verilog(*t));
  }
  EXPECT_EQ(terminals, (std::vector<std::string>{"u.y", "u.t", "u.x"}));
  EXPECT_TRUE(flat.always_blocks.empty());
  EXPECT_TRUE(flat.instances.empty());
  EXPECT_TRUE(flat.params.empty());
}

TEST(Elaborate, StatementsAreSharedUnlessRewritten) {
  // The top's always body has nothing to rewrite, so the flat module
  // holds the parsed tree itself. The instance's body is copied down to
  // what its prefix changes: the null statement is still shared.
  const Design d = parse(
      "module child (input x, output y);\n"
      "  reg r;\n"
      "  always @(*) begin r = x; ; end\n"
      "  assign y = r;\n"
      "endmodule\n"
      "module top (input a, output y);\n"
      "  reg q;\n"
      "  always @(*) q = a;\n"
      "  child u (.x(q), .y(y));\n"
      "endmodule\n");
  const Module flat = elaborate(d, "top");
  ASSERT_EQ(flat.always_blocks.size(), 2u);
  EXPECT_EQ(flat.always_blocks[0].body, d.modules[1].always_blocks[0].body);
  const StmtPtr& parsed = d.modules[0].always_blocks[0].body;
  const StmtPtr& inlined = flat.always_blocks[1].body;
  ASSERT_EQ(inlined->children.size(), 2u);
  EXPECT_NE(inlined, parsed);
  EXPECT_NE(inlined->children[0], parsed->children[0]);
  EXPECT_EQ(to_verilog(*inlined->children[0]->lhs), "u.r");
  EXPECT_EQ(to_verilog(*inlined->children[0]->rhs), "u.x");
  EXPECT_EQ(inlined->children[1], parsed->children[1]);
  EXPECT_EQ(to_verilog(*parsed->children[0]->lhs), "r");
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
