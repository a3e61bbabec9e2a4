#include "verilog/parser.h"

#include <array>
#include <optional>
#include <string_view>
#include <utility>

#include "util/contract.h"
#include "util/name_map.h"
#include "verilog/preprocess.h"

namespace gnn4ip::verilog {
namespace {

bool is_gate_keyword(const Token& t) {
  return t.is_keyword("and") || t.is_keyword("or") || t.is_keyword("xor") ||
         t.is_keyword("xnor") || t.is_keyword("nand") ||
         t.is_keyword("nor") || t.is_keyword("not") || t.is_keyword("buf");
}

struct BinOpInfo {
  BinaryOp op;
  int precedence;  // larger binds tighter
};

/// Binary operator table for precedence climbing. Ternary ?: is handled
/// separately at the lowest level.
constexpr std::array<std::pair<std::string_view, BinOpInfo>, 25> kBinOps = {{
    {"||", {BinaryOp::kLogOr, 2}},   {"&&", {BinaryOp::kLogAnd, 3}},
    {"|", {BinaryOp::kBitOr, 4}},    {"^", {BinaryOp::kBitXor, 5}},
    {"~^", {BinaryOp::kBitXnor, 5}}, {"^~", {BinaryOp::kBitXnor, 5}},
    {"&", {BinaryOp::kBitAnd, 6}},   {"==", {BinaryOp::kEq, 7}},
    {"!=", {BinaryOp::kNeq, 7}},     {"===", {BinaryOp::kCaseEq, 7}},
    {"!==", {BinaryOp::kCaseNeq, 7}}, {"<", {BinaryOp::kLt, 8}},
    {"<=", {BinaryOp::kLe, 8}},      {">", {BinaryOp::kGt, 8}},
    {">=", {BinaryOp::kGe, 8}},      {"<<", {BinaryOp::kShl, 9}},
    {">>", {BinaryOp::kShr, 9}},     {"<<<", {BinaryOp::kAShl, 9}},
    {">>>", {BinaryOp::kAShr, 9}},   {"+", {BinaryOp::kAdd, 10}},
    {"-", {BinaryOp::kSub, 10}},     {"*", {BinaryOp::kMul, 11}},
    {"/", {BinaryOp::kDiv, 11}},     {"%", {BinaryOp::kMod, 11}},
    {"**", {BinaryOp::kPow, 12}},
}};

/// The binary operator `t` spells, if any.
std::optional<BinOpInfo> binary_op(const Token& t) {
  // Most punctuation asked about here ends an operand: , ; ) ] : }
  if (t.kind != TokenKind::kPunct ||
      std::string_view("|&^~=!<>+-*/%").find(t.text[0]) ==
          std::string_view::npos) {
    return std::nullopt;
  }
  for (const auto& [spelling, info] : kBinOps) {
    if (t.text == spelling) return info;
  }
  return std::nullopt;
}

/// A token's text for an error message.
std::string quoted(const Token& t) { return "'" + std::string(t.text) + "'"; }

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {
    GNN4IP_ENSURE(!tokens_.empty() &&
                      tokens_.back().kind == TokenKind::kEndOfFile,
                  "token stream must end with EOF");
  }

  Design parse_design() {
    Design design;
    while (peek().kind != TokenKind::kEndOfFile) {
      if (peek().is_keyword("module")) {
        design.modules.push_back(parse_module());
      } else {
        throw ParseError("expected 'module', got " + quoted(peek()),
                         peek().loc);
      }
    }
    return design;
  }

 private:
  // --- token helpers -------------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t p = pos_ + ahead;
    return p < tokens_.size() ? tokens_[p] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  void expect_punct(std::string_view spelling) {
    if (!peek().is_punct(spelling)) {
      throw ParseError("expected '" + std::string(spelling) + "', got " +
                           quoted(peek()),
                       peek().loc);
    }
    advance();
  }
  void expect_keyword(std::string_view word) {
    if (!peek().is_keyword(word)) {
      throw ParseError("expected '" + std::string(word) + "', got " +
                           quoted(peek()),
                       peek().loc);
    }
    advance();
  }
  /// The identifier's text, viewing the lexed buffer.
  std::string_view expect_identifier(const char* what) {
    if (peek().kind != TokenKind::kIdentifier) {
      throw ParseError(std::string("expected ") + what + ", got " +
                           quoted(peek()),
                       peek().loc);
    }
    return advance().text;
  }
  bool accept_punct(std::string_view spelling) {
    if (peek().is_punct(spelling)) {
      advance();
      return true;
    }
    return false;
  }

  /// One level of expression or statement nesting, held while the
  /// parser recurses into it; the level past kMaxNestingDepth throws at
  /// the token that opens it.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& parser) : depth_(parser.depth_) {
      if (depth_ == kMaxNestingDepth) {
        throw ParseError("nesting deeper than " +
                             std::to_string(kMaxNestingDepth) + " levels",
                         parser.peek().loc);
      }
      ++depth_;
    }
    ~DepthGuard() { --depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    int& depth_;
  };

  // --- module structure ----------------------------------------------------
  Module parse_module() {
    net_index_ = {};
    Module mod;
    mod.loc = peek().loc;
    expect_keyword("module");
    mod.name = expect_identifier("module name");
    if (accept_punct("#")) {
      parse_header_parameters(mod);
    }
    if (accept_punct("(")) {
      parse_port_list(mod);
      expect_punct(")");
    }
    expect_punct(";");
    while (!peek().is_keyword("endmodule")) {
      if (peek().kind == TokenKind::kEndOfFile) {
        throw ParseError("missing 'endmodule' for module " + mod.name,
                         mod.loc);
      }
      parse_module_item(mod);
    }
    expect_keyword("endmodule");
    return mod;
  }

  void parse_header_parameters(Module& mod) {
    expect_punct("(");
    if (!peek().is_punct(")")) {
      do {
        if (peek().is_keyword("parameter")) advance();
        parse_optional_range();  // parameter [msb:lsb] name — range ignored
        ParamDecl param;
        param.loc = peek().loc;
        param.name = expect_identifier("parameter name");
        expect_punct("=");
        param.value = parse_expression();
        mod.params.push_back(std::move(param));
      } while (accept_punct(","));
    }
    expect_punct(")");
  }

  void parse_port_list(Module& mod) {
    if (peek().is_punct(")")) return;  // empty list
    // ANSI style begins with a direction keyword; non-ANSI is a plain
    // identifier list. Mixed continuation inherits the previous decl.
    if (peek().kind == TokenKind::kIdentifier) {
      do {
        mod.port_order.emplace_back(expect_identifier("port name"));
      } while (accept_punct(","));
      return;
    }
    std::optional<PortDirection> direction;
    NetType type = NetType::kWire;
    bool is_signed = false;
    std::optional<Range> range;
    do {
      if (peek().kind == TokenKind::kKeyword && !is_net_intro(peek())) {
        throw ParseError("unexpected " + quoted(peek()) + " in port list",
                         peek().loc);
      }
      if (is_direction_keyword(peek())) {
        direction = parse_direction();
        type = NetType::kWire;
        is_signed = false;
        range.reset();
        if (peek().is_keyword("wire")) {
          advance();
        } else if (peek().is_keyword("reg")) {
          advance();
          type = NetType::kReg;
        }
        if (peek().is_keyword("signed")) {
          advance();
          is_signed = true;
        }
        range = parse_optional_range();
      }
      if (!direction.has_value()) {
        throw ParseError("port requires a direction", peek().loc);
      }
      NetDecl net;
      net.loc = peek().loc;
      const std::string_view name = expect_identifier("port name");
      net.name = name;
      net.type = type;
      net.direction = direction;
      net.is_signed = is_signed;
      net.range = range;
      mod.port_order.push_back(net.name);
      // A repeated ANSI port stays a second declaration; lookups by name
      // find the first.
      net_index_.try_emplace(name, mod.nets.size());
      mod.nets.push_back(std::move(net));
    } while (accept_punct(","));
  }

  static bool is_direction_keyword(const Token& t) {
    return t.is_keyword("input") || t.is_keyword("output") ||
           t.is_keyword("inout");
  }

  static bool is_net_intro(const Token& t) {
    return is_direction_keyword(t) || t.is_keyword("wire") ||
           t.is_keyword("reg") || t.is_keyword("signed") ||
           t.is_keyword("integer") || t.is_keyword("supply0") ||
           t.is_keyword("supply1") || t.is_keyword("tri");
  }

  PortDirection parse_direction() {
    if (peek().is_keyword("input")) {
      advance();
      return PortDirection::kInput;
    }
    if (peek().is_keyword("output")) {
      advance();
      return PortDirection::kOutput;
    }
    expect_keyword("inout");
    return PortDirection::kInout;
  }

  std::optional<Range> parse_optional_range() {
    if (!peek().is_punct("[")) return std::nullopt;
    advance();
    Range r;
    r.msb = parse_expression();
    expect_punct(":");
    r.lsb = parse_expression();
    expect_punct("]");
    return r;
  }

  void parse_module_item(Module& mod) {
    const Token& t = peek();
    if (is_direction_keyword(t)) {
      parse_net_declaration(mod, parse_direction());
    } else if (t.is_keyword("wire") || t.is_keyword("reg") ||
               t.is_keyword("integer") || t.is_keyword("supply0") ||
               t.is_keyword("supply1") || t.is_keyword("tri")) {
      parse_net_declaration(mod, std::nullopt);
    } else if (t.is_keyword("parameter") || t.is_keyword("localparam")) {
      parse_parameter_declaration(mod);
    } else if (t.is_keyword("assign")) {
      parse_continuous_assign(mod);
    } else if (t.is_keyword("always")) {
      mod.always_blocks.push_back(parse_always_block(/*is_initial=*/false));
    } else if (t.is_keyword("initial")) {
      mod.always_blocks.push_back(parse_always_block(/*is_initial=*/true));
    } else if (is_gate_keyword(t)) {
      parse_gate_instances(mod);
    } else if (t.kind == TokenKind::kIdentifier) {
      parse_module_instances(mod);
    } else if (t.is_keyword("function") || t.is_keyword("task") ||
               t.is_keyword("generate") || t.is_keyword("genvar") ||
               t.is_keyword("for") || t.is_keyword("while")) {
      throw ParseError("unsupported construct " + quoted(t) +
                           " (GNN4IP Verilog subset)",
                       t.loc);
    } else {
      throw ParseError("unexpected " + quoted(t) + " in module body", t.loc);
    }
  }

  void parse_net_declaration(Module& mod,
                             std::optional<PortDirection> direction) {
    NetType type = NetType::kWire;
    if (peek().is_keyword("wire")) {
      advance();
    } else if (peek().is_keyword("reg")) {
      advance();
      type = NetType::kReg;
    } else if (peek().is_keyword("integer")) {
      advance();
      type = NetType::kInteger;
    } else if (peek().is_keyword("supply0")) {
      advance();
      type = NetType::kSupply0;
    } else if (peek().is_keyword("supply1")) {
      advance();
      type = NetType::kSupply1;
    } else if (peek().is_keyword("tri")) {
      advance();
      type = NetType::kTri;
    }
    bool is_signed = false;
    if (peek().is_keyword("signed")) {
      advance();
      is_signed = true;
    }
    const std::optional<Range> range = parse_optional_range();
    do {
      NetDecl net;
      net.loc = peek().loc;
      const std::string_view name = expect_identifier("net name");
      net.name = name;
      net.type = type;
      net.direction = direction;
      net.is_signed = is_signed;
      net.range = range;
      if (accept_punct("=")) {
        net.init = parse_expression();
      }
      merge_or_append_net(mod, name, std::move(net));
    } while (accept_punct(","));
    expect_punct(";");
  }

  /// Non-ANSI style declares the same name twice (header + body, or
  /// `output Sum;` + `reg Sum;`). Merge attributes into the name's first
  /// declaration instead of duplicating. `name` is the declaring token's
  /// text, which outlives the module's index.
  void merge_or_append_net(Module& mod, std::string_view name, NetDecl net) {
    const auto [index, inserted] =
        net_index_.try_emplace(name, mod.nets.size());
    if (inserted) {
      mod.nets.push_back(std::move(net));
      return;
    }
    NetDecl* existing = &mod.nets[*index];
    if (net.direction.has_value()) existing->direction = net.direction;
    if (net.type != NetType::kWire) existing->type = net.type;
    if (net.range.has_value()) existing->range = std::move(net.range);
    existing->is_signed = existing->is_signed || net.is_signed;
    if (net.init != nullptr) existing->init = std::move(net.init);
  }

  void parse_parameter_declaration(Module& mod) {
    const bool local = peek().is_keyword("localparam");
    advance();
    parse_optional_range();
    do {
      ParamDecl param;
      param.loc = peek().loc;
      param.local = local;
      param.name = expect_identifier("parameter name");
      expect_punct("=");
      param.value = parse_expression();
      mod.params.push_back(std::move(param));
    } while (accept_punct(","));
    expect_punct(";");
  }

  void parse_continuous_assign(Module& mod) {
    expect_keyword("assign");
    skip_optional_delay();
    do {
      ContinuousAssign ca;
      ca.loc = peek().loc;
      ca.lhs = parse_lvalue();
      expect_punct("=");
      ca.rhs = parse_expression();
      mod.assigns.push_back(std::move(ca));
    } while (accept_punct(","));
    expect_punct(";");
  }

  AlwaysBlock parse_always_block(bool is_initial) {
    AlwaysBlock block;
    block.loc = peek().loc;
    block.is_initial = is_initial;
    advance();  // always / initial
    if (!is_initial) {
      if (accept_punct("@")) {
        if (accept_punct("*")) {
          block.sensitivity_star = true;
        } else {
          expect_punct("(");
          if (accept_punct("*")) {
            block.sensitivity_star = true;
          } else {
            while (true) {
              SensitivityItem item;
              if (peek().is_keyword("posedge")) {
                advance();
                item.edge = EdgeKind::kPosedge;
              } else if (peek().is_keyword("negedge")) {
                advance();
                item.edge = EdgeKind::kNegedge;
              }
              item.signal = parse_expression();
              block.sensitivity.push_back(std::move(item));
              // Items separated by ',' or the keyword 'or'.
              if (peek().is_keyword("or")) {
                advance();
                continue;
              }
              if (accept_punct(",")) continue;
              break;
            }
          }
          expect_punct(")");
        }
      } else {
        // `always begin ... end` without sensitivity: treat like @*.
        block.sensitivity_star = true;
      }
    }
    block.body = parse_statement();
    return block;
  }

  // --- statements -----------------------------------------------------------
  StmtPtr parse_statement() {
    const DepthGuard guard(*this);
    auto stmt = std::make_shared<Stmt>();
    stmt->loc = peek().loc;
    skip_optional_delay();
    if (peek().is_keyword("begin")) {
      advance();
      if (accept_punct(":")) {
        expect_identifier("block label");
      }
      stmt->kind = StmtKind::kBlock;
      while (!peek().is_keyword("end")) {
        if (peek().kind == TokenKind::kEndOfFile) {
          throw ParseError("missing 'end'", stmt->loc);
        }
        stmt->children.push_back(parse_statement());
      }
      advance();  // end
      return stmt;
    }
    if (peek().is_keyword("if")) {
      advance();
      stmt->kind = StmtKind::kIf;
      expect_punct("(");
      stmt->cond = parse_expression();
      expect_punct(")");
      stmt->children.push_back(parse_statement());
      if (peek().is_keyword("else")) {
        advance();
        stmt->children.push_back(parse_statement());
      } else {
        stmt->children.push_back(nullptr);
      }
      return stmt;
    }
    if (peek().is_keyword("case") || peek().is_keyword("casex") ||
        peek().is_keyword("casez")) {
      stmt->kind = StmtKind::kCase;
      stmt->casex = !peek().is_keyword("case");
      advance();
      expect_punct("(");
      stmt->cond = parse_expression();
      expect_punct(")");
      while (!peek().is_keyword("endcase")) {
        if (peek().kind == TokenKind::kEndOfFile) {
          throw ParseError("missing 'endcase'", stmt->loc);
        }
        CaseItem item;
        if (peek().is_keyword("default")) {
          advance();
          accept_punct(":");
        } else {
          do {
            item.labels.push_back(parse_expression());
          } while (accept_punct(","));
          expect_punct(":");
        }
        item.body = parse_statement();
        stmt->case_items.push_back(std::move(item));
      }
      advance();  // endcase
      return stmt;
    }
    if (peek().is_punct(";")) {
      advance();
      stmt->kind = StmtKind::kNull;
      return stmt;
    }
    if (peek().kind == TokenKind::kIdentifier && peek().text[0] == '$') {
      // System task call ($display, ...): parse and discard.
      advance();
      if (accept_punct("(")) {
        int depth = 1;
        while (depth > 0) {
          if (peek().kind == TokenKind::kEndOfFile) {
            throw ParseError("unterminated system task call", stmt->loc);
          }
          if (peek().is_punct("(")) ++depth;
          if (peek().is_punct(")")) --depth;
          advance();
        }
      }
      expect_punct(";");
      stmt->kind = StmtKind::kNull;
      return stmt;
    }
    if (peek().is_keyword("for") || peek().is_keyword("while")) {
      throw ParseError("unsupported loop statement in GNN4IP Verilog subset",
                       peek().loc);
    }
    // Assignment.
    stmt->lhs = parse_lvalue();
    if (accept_punct("=")) {
      stmt->kind = StmtKind::kBlockingAssign;
    } else if (accept_punct("<=")) {
      stmt->kind = StmtKind::kNonblockingAssign;
    } else {
      throw ParseError(
          "expected '=' or '<=' in assignment, got " + quoted(peek()),
          peek().loc);
    }
    skip_optional_delay();
    stmt->rhs = parse_expression();
    expect_punct(";");
    return stmt;
  }

  void skip_optional_delay() {
    if (!peek().is_punct("#")) return;
    // `#` in statement position is a delay control; in instantiation it is
    // handled separately. Consume `#number`, `#ident`, or `#(expr[,expr])`.
    advance();
    if (accept_punct("(")) {
      int depth = 1;
      while (depth > 0) {
        if (peek().kind == TokenKind::kEndOfFile) {
          throw ParseError("unterminated delay expression", peek().loc);
        }
        if (peek().is_punct("(")) ++depth;
        if (peek().is_punct(")")) --depth;
        advance();
      }
    } else {
      advance();  // simple literal / identifier delay
    }
  }

  // --- instances ------------------------------------------------------------
  void parse_gate_instances(Module& mod) {
    const std::string_view gate_type = advance().text;
    skip_optional_delay();
    do {
      GateInstance gate;
      gate.loc = peek().loc;
      gate.gate_type = gate_type;
      if (peek().kind == TokenKind::kIdentifier && peek(1).is_punct("(")) {
        gate.instance_name = advance().text;
      }
      expect_punct("(");
      do {
        gate.terminals.push_back(parse_expression());
      } while (accept_punct(","));
      expect_punct(")");
      if (gate.terminals.size() < 2) {
        throw ParseError("gate '" + std::string(gate_type) +
                             "' needs at least an output and one input",
                         gate.loc);
      }
      mod.gates.push_back(std::move(gate));
    } while (accept_punct(","));
    expect_punct(";");
  }

  void parse_module_instances(Module& mod) {
    const std::string_view module_name = expect_identifier("module name");
    std::vector<PortConnection> params;
    if (accept_punct("#")) {
      expect_punct("(");
      params = parse_connection_list();
      expect_punct(")");
    }
    do {
      ModuleInstance inst;
      inst.loc = peek().loc;
      inst.module_name = module_name;
      inst.parameter_overrides = params;
      inst.instance_name = expect_identifier("instance name");
      if (peek().is_punct("[")) {
        throw ParseError("instance arrays are not supported", peek().loc);
      }
      expect_punct("(");
      inst.connections = parse_connection_list();
      expect_punct(")");
      mod.instances.push_back(std::move(inst));
    } while (accept_punct(","));
    expect_punct(";");
  }

  std::vector<PortConnection> parse_connection_list() {
    std::vector<PortConnection> connections;
    if (peek().is_punct(")")) return connections;
    do {
      PortConnection conn;
      if (accept_punct(".")) {
        conn.port_name = expect_identifier("port name");
        expect_punct("(");
        if (!peek().is_punct(")")) {
          conn.actual = parse_expression();
        }
        expect_punct(")");
      } else {
        conn.actual = parse_expression();
      }
      connections.push_back(std::move(conn));
    } while (accept_punct(","));
    return connections;
  }

  // --- expressions ----------------------------------------------------------
  ExprPtr parse_expression() {
    const DepthGuard guard(*this);
    return parse_ternary();
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_binary(1);
    if (!accept_punct("?")) return cond;
    auto expr = std::make_shared<Expr>();
    expr->kind = ExprKind::kTernary;
    expr->loc = cond->loc;
    ExprPtr then_val = parse_expression();
    expect_punct(":");
    ExprPtr else_val = parse_expression();
    expr->operands.push_back(std::move(cond));
    expr->operands.push_back(std::move(then_val));
    expr->operands.push_back(std::move(else_val));
    return expr;
  }

  ExprPtr parse_binary(int min_precedence) {
    ExprPtr lhs = parse_unary();
    while (true) {
      const std::optional<BinOpInfo> info = binary_op(peek());
      if (!info.has_value() || info->precedence < min_precedence) break;
      advance();
      ExprPtr rhs = parse_binary(info->precedence + 1);
      lhs = make_binary(info->op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    if (t.kind == TokenKind::kPunct) {
      UnaryOp op;
      bool matched = true;
      if (t.text == "+") op = UnaryOp::kPlus;
      else if (t.text == "-") op = UnaryOp::kMinus;
      else if (t.text == "~") op = UnaryOp::kBitNot;
      else if (t.text == "!") op = UnaryOp::kLogNot;
      else if (t.text == "&") op = UnaryOp::kRedAnd;
      else if (t.text == "|") op = UnaryOp::kRedOr;
      else if (t.text == "^") op = UnaryOp::kRedXor;
      else if (t.text == "~&") op = UnaryOp::kRedNand;
      else if (t.text == "~|") op = UnaryOp::kRedNor;
      else if (t.text == "~^" || t.text == "^~") op = UnaryOp::kRedXnor;
      else matched = false;
      if (matched) {
        const DepthGuard guard(*this);
        const SourceLocation loc = t.loc;
        advance();
        return make_unary(op, parse_unary(), loc);
      }
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr base = parse_primary();
    while (peek().is_punct("[")) {
      advance();
      ExprPtr first = parse_expression();
      if (accept_punct(":")) {
        ExprPtr second = parse_expression();
        auto sel = std::make_shared<Expr>();
        sel->kind = ExprKind::kPartSelect;
        sel->loc = base->loc;
        sel->operands.push_back(std::move(base));
        sel->operands.push_back(std::move(first));
        sel->operands.push_back(std::move(second));
        base = std::move(sel);
      } else if (accept_punct("+:")) {
        // Indexed part select base[start +: width] — treat like part select.
        ExprPtr width = parse_expression();
        auto sel = std::make_shared<Expr>();
        sel->kind = ExprKind::kPartSelect;
        sel->loc = base->loc;
        sel->operands.push_back(std::move(base));
        sel->operands.push_back(std::move(first));
        sel->operands.push_back(std::move(width));
        base = std::move(sel);
      } else {
        auto sel = std::make_shared<Expr>();
        sel->kind = ExprKind::kBitSelect;
        sel->loc = base->loc;
        sel->operands.push_back(std::move(base));
        sel->operands.push_back(std::move(first));
        base = std::move(sel);
      }
      expect_punct("]");
    }
    return base;
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    if (t.kind == TokenKind::kNumber) {
      ExprPtr e = make_number(std::string(t.text), t.loc);
      advance();
      return e;
    }
    if (t.kind == TokenKind::kString) {
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kString;
      e->text = t.text;
      e->loc = t.loc;
      advance();
      return e;
    }
    if (t.kind == TokenKind::kIdentifier) {
      ExprPtr e = make_identifier(std::string(t.text), t.loc);
      advance();
      return e;
    }
    if (t.is_punct("(")) {
      advance();
      ExprPtr inner = parse_expression();
      expect_punct(")");
      return inner;
    }
    if (t.is_punct("{")) {
      advance();
      // Either a concatenation {a, b, c} or a replication {N{expr}}.
      ExprPtr first = parse_expression();
      if (peek().is_punct("{")) {
        advance();
        auto rep = std::make_shared<Expr>();
        rep->kind = ExprKind::kRepeat;
        rep->loc = t.loc;
        rep->operands.push_back(std::move(first));
        // Replication body is a concatenation list: {N{a, b, ...}}.
        ExprPtr body = parse_expression();
        if (peek().is_punct(",")) {
          auto inner = std::make_shared<Expr>();
          inner->kind = ExprKind::kConcat;
          inner->loc = body->loc;
          inner->operands.push_back(std::move(body));
          while (accept_punct(",")) {
            inner->operands.push_back(parse_expression());
          }
          body = std::move(inner);
        }
        rep->operands.push_back(std::move(body));
        expect_punct("}");
        expect_punct("}");
        return rep;
      }
      auto concat = std::make_shared<Expr>();
      concat->kind = ExprKind::kConcat;
      concat->loc = t.loc;
      concat->operands.push_back(std::move(first));
      while (accept_punct(",")) {
        concat->operands.push_back(parse_expression());
      }
      expect_punct("}");
      return concat;
    }
    throw ParseError("expected expression, got " + quoted(t), t.loc);
  }

  /// Lvalues: identifier, identifier[sel], identifier[msb:lsb], or a
  /// concatenation of lvalues.
  ExprPtr parse_lvalue() {
    if (peek().is_punct("{")) {
      const DepthGuard guard(*this);
      const Token& open = peek();
      advance();
      auto concat = std::make_shared<Expr>();
      concat->kind = ExprKind::kConcat;
      concat->loc = open.loc;
      do {
        concat->operands.push_back(parse_lvalue());
      } while (accept_punct(","));
      expect_punct("}");
      return concat;
    }
    const Token& t = peek();
    if (t.kind != TokenKind::kIdentifier) {
      throw ParseError("expected lvalue, got " + quoted(t), t.loc);
    }
    return parse_postfix();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // DepthGuards alive
  /// Current module's net name -> position of its first declaration in
  /// `Module::nets`. Keys view the declaring tokens' text, which the
  /// caller keeps for the whole parse.
  util::NameMap<std::size_t> net_index_;
};

}  // namespace

Design parse(const std::string& source) {
  const std::string preprocessed = preprocess(source);
  return parse_tokens(lex(preprocessed));
}

Design parse_tokens(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  return parser.parse_design();
}

}  // namespace gnn4ip::verilog
