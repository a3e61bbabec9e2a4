#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "verilog/token.h"

namespace gnn4ip::verilog {
namespace {

// Character classes, one bit each, read through kClass.
enum : std::uint8_t {
  kSpace = 1U << 0,       // isspace in the "C" locale
  kIdentStart = 1U << 1,  // [A-Za-z_]
  kIdentChar = 1U << 2,   // [A-Za-z0-9_$]
  kDigit = 1U << 3,       // [0-9]
  kSizeChar = 1U << 4,    // [0-9_]: a literal's size or plain decimal
  kBasedDigit = 1U << 5,  // [A-Za-z0-9_?]: digits after a base
  kBase = 1U << 6,        // [bodhBODH]
  kPunctChar = 1U << 7,   // a one-byte punctuation spelling
};

constexpr std::array<std::uint8_t, 256> make_class_table() {
  std::array<std::uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    std::uint8_t bits = 0;
    if (alpha || c == '_') bits |= kIdentStart;
    if (alpha || digit || c == '_' || c == '$') bits |= kIdentChar;
    if (digit) bits |= kDigit;
    if (digit || c == '_') bits |= kSizeChar;
    if (alpha || digit || c == '_' || c == '?') bits |= kBasedDigit;
    table[static_cast<std::size_t>(c)] = bits;
  }
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    table[static_cast<unsigned char>(c)] |= kSpace;
  }
  for (const char c : std::string_view("bodhBODH")) {
    table[static_cast<unsigned char>(c)] |= kBase;
  }
  for (const char c : std::string_view("()[]{},;:.#?=@&|^~!+-*/%<>")) {
    table[static_cast<unsigned char>(c)] |= kPunctChar;
  }
  return table;
}

constexpr std::array<std::uint8_t, 256> kClass = make_class_table();

/// Preprocessed generator designs run 2.3 to 5.2 bytes per token and
/// netlists 3.0 to 3.5, so one token per 3 bytes seldom regrows and
/// over-reserves RTL, whose sources are small, by at most 1.8x.
constexpr std::size_t kBytesPerToken = 3;

bool is_keyword(std::string_view w) {
  switch (w.size()) {
    case 2:
      return w == "if" || w == "or";
    case 3:
      return w == "reg" || w == "end" || w == "and" || w == "xor" ||
             w == "nor" || w == "not" || w == "buf" || w == "for" ||
             w == "tri";
    case 4:
      return w == "wire" || w == "else" || w == "case" || w == "xnor" ||
             w == "nand" || w == "task";
    case 5:
      return w == "input" || w == "inout" || w == "begin" || w == "casex" ||
             w == "casez" || w == "while";
    case 6:
      return w == "module" || w == "output" || w == "assign" ||
             w == "always" || w == "signed" || w == "genvar";
    case 7:
      return w == "initial" || w == "endcase" || w == "default" ||
             w == "posedge" || w == "negedge" || w == "integer" ||
             w == "endtask" || w == "supply0" || w == "supply1";
    case 8:
      return w == "function" || w == "generate";
    case 9:
      return w == "endmodule" || w == "parameter";
    case 10:
      return w == "localparam";
    case 11:
      return w == "endfunction" || w == "endgenerate";
    default:
      return false;
  }
}

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> tokens;
    tokens.reserve(src_.size() / kBytesPerToken + 1);
    std::size_t pos = 0;
    while (pos < src_.size()) {
      const char c = src_[pos];
      const std::uint8_t cls = kClass[static_cast<unsigned char>(c)];
      if ((cls & kSpace) != 0) {
        if (c == '\n') start_line(pos + 1);
        ++pos;
        continue;
      }
      const std::size_t begin = pos;
      TokenKind kind = TokenKind::kPunct;
      if ((cls & kIdentStart) != 0) {
        pos = skip(kIdentChar, pos + 1);
        kind = is_keyword(src_.substr(begin, pos - begin))
                   ? TokenKind::kKeyword
                   : TokenKind::kIdentifier;
      } else if ((cls & kDigit) != 0) {
        pos = number_end(pos);
        kind = TokenKind::kNumber;
      } else if (c == '\\') {
        // Escaped identifier: backslash to next whitespace.
        pos = begin + 1;
        while (pos < src_.size() && !has(kSpace, pos)) ++pos;
        if (pos == begin + 1) {
          throw ParseError("empty escaped identifier", loc(begin));
        }
        tokens.push_back({TokenKind::kIdentifier,
                          src_.substr(begin + 1, pos - begin - 1), loc(begin)});
        continue;
      } else if (c == '\'') {
        // Unsized based literal like 'b0 / 'd12.
        pos = begin + 1;
        if (at(pos) == 's' || at(pos) == 'S') ++pos;
        if (!has(kBase, pos)) {
          throw ParseError("malformed based literal", loc(begin));
        }
        pos = skip(kBasedDigit, pos + 1);
        kind = TokenKind::kNumber;
      } else if (c == '"') {
        const SourceLocation start = loc(begin);
        pos = string_end(begin);
        tokens.push_back({TokenKind::kString,
                          src_.substr(begin + 1, pos - begin - 2), start});
        continue;
      } else if (c == '$') {
        // System identifier ($display, $time, ...).
        pos = skip(kIdentChar, pos + 1);
        kind = TokenKind::kIdentifier;
      } else {
        const std::size_t length = punct_length(pos);
        if (length == 0) {
          throw ParseError(std::string("unexpected character '") + c + "'",
                           loc(pos));
        }
        pos += length;
      }
      tokens.push_back({kind, src_.substr(begin, pos - begin), loc(begin)});
    }
    tokens.push_back({TokenKind::kEndOfFile, {}, loc(pos)});
    return tokens;
  }

 private:
  [[nodiscard]] char at(std::size_t p) const {
    return p < src_.size() ? src_[p] : '\0';
  }
  [[nodiscard]] bool has(std::uint8_t cls, std::size_t p) const {
    return p < src_.size() &&
           (kClass[static_cast<unsigned char>(src_[p])] & cls) != 0;
  }
  /// First position at or after `p` outside `cls`.
  [[nodiscard]] std::size_t skip(std::uint8_t cls, std::size_t p) const {
    while (has(cls, p)) ++p;
    return p;
  }
  [[nodiscard]] SourceLocation loc(std::size_t p) const {
    return {line_, static_cast<int>(p - line_start_) + 1};
  }
  void start_line(std::size_t first) {
    ++line_;
    line_start_ = first;
  }

  /// End of the number starting at digit `p`: an optional size (decimal
  /// digits) then 'base digits, or a plain decimal, possibly real (DFGs
  /// treat numbers opaquely).
  [[nodiscard]] std::size_t number_end(std::size_t p) const {
    p = skip(kSizeChar, p);
    if (at(p) == '\'') {
      const bool is_signed = at(p + 1) == 's' || at(p + 1) == 'S';
      if (has(kBase, p + 1) || (is_signed && has(kBase, p + 2))) {
        return skip(kBasedDigit, p + (is_signed ? 3 : 2));
      }
    } else if (at(p) == '.' && has(kDigit, p + 1)) {
      return skip(kDigit, p + 1);
    }
    return p;
  }

  /// One past the closing quote of the string opening at `p`. A
  /// backslash escapes the next byte, a newline included.
  std::size_t string_end(std::size_t p) {
    const SourceLocation start = loc(p);
    ++p;
    while (true) {
      if (p >= src_.size() || src_[p] == '\n') {
        throw ParseError("unterminated string literal", start);
      }
      const char ch = src_[p++];
      if (ch == '"') return p;
      if (ch == '\\' && p < src_.size()) {
        if (src_[p] == '\n') start_line(p + 1);
        ++p;
      }
    }
  }

  /// Length of the longest punctuation spelling at `p`, or 0 if none
  /// starts there.
  [[nodiscard]] std::size_t punct_length(std::size_t p) const {
    const char next = at(p + 1);
    switch (src_[p]) {
      case '<':  // <<< << <= <
      case '>':  // >>> >> >= >
        if (next == src_[p]) return at(p + 2) == src_[p] ? 3 : 2;
        return next == '=' ? 2 : 1;
      case '=':  // === == =
      case '!':  // !== != !
        if (next == '=') return at(p + 2) == '=' ? 3 : 2;
        return 1;
      case '&':  // && &
      case '|':  // || |
      case '*':  // ** *
        return next == src_[p] ? 2 : 1;
      case '~':  // ~& ~| ~^ ~
        return next == '&' || next == '|' || next == '^' ? 2 : 1;
      case '^':  // ^~ ^
        return next == '~' ? 2 : 1;
      case '+':  // +: +
        return next == ':' ? 2 : 1;
      default:
        return has(kPunctChar, p) ? 1 : 0;
    }
  }

  std::string_view src_;
  int line_ = 1;
  std::size_t line_start_ = 0;  // offset of the current line's first byte
};

}  // namespace

std::vector<Token> lex(std::string_view source) {
  return Lexer(source).run();
}

}  // namespace gnn4ip::verilog
