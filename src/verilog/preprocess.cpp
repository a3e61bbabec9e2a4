#include "verilog/preprocess.h"

#include <cctype>
#include <vector>

#include "util/string_util.h"
#include "verilog/diagnostics.h"

namespace gnn4ip::verilog {
namespace {

struct Cursor {
  const std::string* text = nullptr;
  std::size_t pos = 0;
  int line = 1;
  int column = 1;

  [[nodiscard]] bool at_end() const { return pos >= text->size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    const std::size_t p = pos + ahead;
    return p < text->size() ? (*text)[p] : '\0';
  }
  char advance() {
    const char c = (*text)[pos++];
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
    return c;
  }
  [[nodiscard]] SourceLocation loc() const { return {line, column}; }
};

class Preprocessor {
 public:
  Preprocessor(const PreprocessOptions& options) : options_(options) {
    defines_ = options.defines;
  }

  /// Conditionals balance within each file: `base` is the depth of
  /// `cond_stack_` when this file starts, which its `else/`endif may not
  /// pop below and at which it must end.
  std::string run(const std::string& source, int depth) {
    if (depth > options_.max_include_depth) {
      throw ParseError("maximum `include depth exceeded", {1, 1});
    }
    const std::size_t base = cond_stack_.size();
    Cursor cur;
    cur.text = &source;
    std::string out;
    out.reserve(source.size());
    while (!cur.at_end()) {
      const char c = cur.peek();
      if (c == '/' && cur.peek(1) == '/') {
        skip_line_comment(cur, out);
      } else if (c == '/' && cur.peek(1) == '*') {
        skip_block_comment(cur, out);
      } else if (c == '"') {
        copy_string_literal(cur, out);
      } else if (c == '`') {
        handle_directive(cur, out, depth, base);
      } else {
        if (emitting()) {
          out.push_back(c);
        } else if (c == '\n') {
          out.push_back('\n');
        }
        cur.advance();
      }
    }
    if (cond_stack_.size() != base) {
      throw ParseError("unterminated `ifdef/`ifndef", cur.loc());
    }
    return out;
  }

 private:
  [[nodiscard]] bool emitting() const { return inactive_levels_ == 0; }

  static void skip_line_comment(Cursor& cur, std::string& out) {
    while (!cur.at_end() && cur.peek() != '\n') cur.advance();
    (void)out;  // newline itself is copied by the main loop
  }

  void skip_block_comment(Cursor& cur, std::string& out) {
    const SourceLocation start = cur.loc();
    cur.advance();  // '/'
    cur.advance();  // '*'
    while (true) {
      if (cur.at_end()) {
        throw ParseError("unterminated block comment", start);
      }
      const char c = cur.advance();
      if (c == '\n') out.push_back('\n');  // keep line structure
      if (c == '*' && cur.peek() == '/') {
        cur.advance();
        return;
      }
    }
  }

  void copy_string_literal(Cursor& cur, std::string& out) {
    const SourceLocation start = cur.loc();
    if (emitting()) out.push_back(cur.peek());
    cur.advance();
    while (true) {
      if (cur.at_end() || cur.peek() == '\n') {
        throw ParseError("unterminated string literal", start);
      }
      const char c = cur.advance();
      if (emitting()) out.push_back(c);
      if (c == '\\' && !cur.at_end()) {
        const char esc = cur.advance();
        if (emitting()) out.push_back(esc);
        continue;
      }
      if (c == '"' && out.size() >= 2) return;
      if (c == '"') return;
    }
  }

  static std::string read_identifier(Cursor& cur) {
    std::string name;
    while (!cur.at_end()) {
      const char c = cur.peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '$') {
        name.push_back(c);
        cur.advance();
      } else {
        break;
      }
    }
    return name;
  }

  static std::string read_rest_of_line(Cursor& cur) {
    std::string text;
    while (!cur.at_end() && cur.peek() != '\n') {
      // Line continuation with backslash.
      if (cur.peek() == '\\' && cur.peek(1) == '\n') {
        cur.advance();
        cur.advance();
        text.push_back(' ');
        continue;
      }
      text.push_back(cur.advance());
    }
    return text;
  }

  void handle_directive(Cursor& cur, std::string& out, int depth,
                        std::size_t base) {
    const SourceLocation start = cur.loc();
    cur.advance();  // '`'
    const std::string name = read_identifier(cur);
    if (name.empty()) {
      throw ParseError("stray ` without directive or macro name", start);
    }
    if (name == "define") {
      skip_spaces(cur);
      const std::string macro = read_identifier(cur);
      if (macro.empty()) {
        throw ParseError("`define requires a macro name", start);
      }
      const std::string body = std::string(util::trim(read_rest_of_line(cur)));
      if (emitting()) defines_[macro] = body;
    } else if (name == "undef") {
      skip_spaces(cur);
      const std::string macro = read_identifier(cur);
      if (emitting()) defines_.erase(macro);
      (void)read_rest_of_line(cur);
    } else if (name == "ifdef" || name == "ifndef") {
      skip_spaces(cur);
      const std::string macro = read_identifier(cur);
      if (macro.empty()) {
        throw ParseError("`" + name + " requires a macro name", start);
      }
      const bool defined = defines_.count(macro) > 0;
      const bool active = name == "ifdef" ? defined : !defined;
      cond_stack_.push_back(active);
      if (!active) ++inactive_levels_;
    } else if (name == "else") {
      if (cond_stack_.size() == base) {
        throw ParseError("`else without matching `ifdef", start);
      }
      if (cond_stack_.back()) {
        ++inactive_levels_;
      } else {
        --inactive_levels_;
      }
      cond_stack_.back() = !cond_stack_.back();
    } else if (name == "endif") {
      if (cond_stack_.size() == base) {
        throw ParseError("`endif without matching `ifdef", start);
      }
      if (!cond_stack_.back()) --inactive_levels_;
      cond_stack_.pop_back();
    } else if (name == "include") {
      skip_spaces(cur);
      if (cur.peek() != '"') {
        throw ParseError("`include expects a quoted path", cur.loc());
      }
      cur.advance();
      std::string path;
      while (!cur.at_end() && cur.peek() != '"' && cur.peek() != '\n') {
        path.push_back(cur.advance());
      }
      if (cur.peek() != '"') {
        throw ParseError("unterminated `include path", start);
      }
      cur.advance();
      if (emitting()) {
        if (!options_.resolver) {
          throw ParseError("`include \"" + path +
                               "\" but no include resolver configured",
                           start);
        }
        const auto content = options_.resolver(path);
        if (!content.has_value()) {
          throw ParseError("cannot resolve `include \"" + path + "\"", start);
        }
        out += run(*content, depth + 1);
      }
    } else if (name == "timescale" || name == "default_nettype" ||
               name == "celldefine" || name == "endcelldefine" ||
               name == "resetall") {
      // Harmless directives for our purposes: consume and drop.
      (void)read_rest_of_line(cur);
    } else {
      // Macro usage.
      const auto it = defines_.find(name);
      if (it == defines_.end()) {
        throw ParseError("undefined macro `" + name, start);
      }
      if (emitting()) out += it->second;
    }
  }

  static void skip_spaces(Cursor& cur) {
    while (!cur.at_end() && (cur.peek() == ' ' || cur.peek() == '\t')) {
      cur.advance();
    }
  }

  const PreprocessOptions& options_;
  std::map<std::string, std::string> defines_;
  std::vector<bool> cond_stack_;
  /// Number of false entries in `cond_stack_`; text is emitted at zero.
  std::size_t inactive_levels_ = 0;
};

}  // namespace

std::string preprocess(const std::string& source,
                       const PreprocessOptions& options) {
  Preprocessor pp(options);
  return pp.run(source, 0);
}

}  // namespace gnn4ip::verilog
