// Source locations and the user-facing error type for the Verilog
// frontend.  Frontend errors are *user input* problems (bad syntax,
// unknown module, unsupported construct) and therefore get a dedicated
// exception carrying location info, which audit::compile_rtl turns into
// a per-design diagnostic; a broken contract inside the library is a
// util::ContractViolation instead, and propagates.
#pragma once

#include <stdexcept>
#include <string>

namespace gnn4ip::verilog {

/// 1-based position in a (possibly preprocessed) source buffer.
struct SourceLocation {
  int line = 0;
  int column = 0;

  [[nodiscard]] std::string to_string() const {
    return std::to_string(line) + ":" + std::to_string(column);
  }
};

/// Raised for malformed or unsupported Verilog input.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, SourceLocation where)
      : std::runtime_error(where.to_string() + ": " + message),
        message_(std::move(message)),
        location_(where) {}

  /// The message without the location prefix — for callers (the audit
  /// diagnostic surface) that carry the location as structured data.
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] SourceLocation location() const { return location_; }

 private:
  std::string message_;
  SourceLocation location_;
};

}  // namespace gnn4ip::verilog
