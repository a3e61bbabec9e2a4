// Verilog preprocessor: comment stripping, `define / `undef object macros,
// macro expansion (`NAME, rescanned so a body may use other macros), and
// `ifdef / `ifndef / `else / `endif conditionals (`elsif is not
// implemented and is an error wherever it appears). The front end takes
// one self-contained source, so an active `include is an error.
//
// Line structure is preserved (comments are blanked, directives removed
// but their newlines kept) so lexer locations refer to the original text.
#pragma once

#include <string>

namespace gnn4ip::verilog {

/// Preprocess `source`; throws ParseError on malformed directives, an
/// active `include, any `elsif, unterminated comments, undefined macros,
/// unbalanced conditionals, or macro expansions nested more than 64 deep
/// or pasting more than 1 MiB. Macro uses and `include inside an inactive
/// conditional group are skipped (IEEE 1364-2005 §19.4).
[[nodiscard]] std::string preprocess(const std::string& source);

}  // namespace gnn4ip::verilog
