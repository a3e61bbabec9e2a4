// Verilog preprocessor: comment stripping, `define / `undef object macros,
// macro expansion (`NAME, rescanned so a body may use other macros),
// `ifdef / `ifndef / `else / `endif conditionals, and `include resolved
// through a caller-provided virtual file system.
//
// Line structure is preserved (comments are blanked, directives removed
// but their newlines kept) so lexer locations refer to the original text.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

namespace gnn4ip::verilog {

/// Resolves an `include path to file contents; return std::nullopt if the
/// file is unknown (which raises a ParseError).
using IncludeResolver =
    std::function<std::optional<std::string>(const std::string&)>;

struct PreprocessOptions {
  /// Predefined object-like macros (name -> replacement text).
  std::map<std::string, std::string> defines;
  /// `include resolution; defaults to "no includes available".
  IncludeResolver resolver;
  /// Guard against runaway recursive `include.
  int max_include_depth = 16;
};

/// Preprocess `source`; throws ParseError on malformed directives,
/// unterminated comments, unknown includes, unbalanced conditionals, or
/// macro expansions nested more than 64 deep or pasting more than 1 MiB.
[[nodiscard]] std::string preprocess(const std::string& source,
                                     const PreprocessOptions& options = {});

}  // namespace gnn4ip::verilog
