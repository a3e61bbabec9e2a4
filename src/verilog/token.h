// Token stream produced by the Verilog lexer.
//
// A token's text is a view into the buffer it was lexed from, so that
// buffer must outlive the tokens and every parse_tokens call on them.
#pragma once

#include <string_view>
#include <vector>

#include "verilog/diagnostics.h"

namespace gnn4ip::verilog {

enum class TokenKind {
  kIdentifier,   // foo, \escaped , $display
  kKeyword,      // module, wire, always, ... (text holds the keyword)
  kNumber,       // 42, 8'hFF, 4'b10_10 (text holds the literal)
  kString,       // "..." (text holds contents without quotes)
  kPunct,        // operators and punctuation (text holds the spelling)
  kEndOfFile,
};

struct Token {
  TokenKind kind = TokenKind::kEndOfFile;
  std::string_view text;
  SourceLocation loc;

  [[nodiscard]] bool is_punct(std::string_view spelling) const {
    return kind == TokenKind::kPunct && text == spelling;
  }
  [[nodiscard]] bool is_keyword(std::string_view word) const {
    return kind == TokenKind::kKeyword && text == word;
  }
};

/// Tokenize preprocessed source; throws ParseError on bad characters,
/// malformed based literals, or unterminated literals. The result always
/// ends with a kEndOfFile token. Gate primitive names (and/or/not/...) lex
/// as keywords; the parser accepts them where the grammar requires.
[[nodiscard]] std::vector<Token> lex(std::string_view source);

}  // namespace gnn4ip::verilog
