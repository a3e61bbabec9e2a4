// Recursive-descent parser for the supported Verilog subset.
//
// parse() runs the preprocessor, lexer, and parser; parse_tokens() starts
// from an existing token stream. Both throw ParseError on malformed or
// unsupported input, including nesting deeper than kMaxNestingDepth.
#pragma once

#include <string>
#include <vector>

#include "verilog/ast.h"
#include "verilog/token.h"

namespace gnn4ip::verilog {

/// Deepest nesting the parser accepts, counting each expression,
/// statement, prefix operator and lvalue concatenation that it recurses
/// into. Deeper input is a ParseError, not a stack overflow.
inline constexpr int kMaxNestingDepth = 1000;

/// Preprocess + lex + parse a Verilog source buffer.
[[nodiscard]] Design parse(const std::string& source);

/// Parse an already-lexed token stream. The tokens view the buffer they
/// were lexed from, which must outlive this call; the returned Design
/// owns copies of every name and literal it keeps.
[[nodiscard]] Design parse_tokens(std::vector<Token> tokens);

}  // namespace gnn4ip::verilog
