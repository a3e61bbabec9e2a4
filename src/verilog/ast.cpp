#include "verilog/ast.h"

#include <sstream>

#include "util/contract.h"

namespace gnn4ip::verilog {

const char* to_string(UnaryOp op) {
  switch (op) {
    case UnaryOp::kPlus: return "+";
    case UnaryOp::kMinus: return "-";
    case UnaryOp::kBitNot: return "~";
    case UnaryOp::kLogNot: return "!";
    case UnaryOp::kRedAnd: return "&";
    case UnaryOp::kRedOr: return "|";
    case UnaryOp::kRedXor: return "^";
    case UnaryOp::kRedNand: return "~&";
    case UnaryOp::kRedNor: return "~|";
    case UnaryOp::kRedXnor: return "~^";
  }
  return "?";
}

const char* to_string(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kPow: return "**";
    case BinaryOp::kBitAnd: return "&";
    case BinaryOp::kBitOr: return "|";
    case BinaryOp::kBitXor: return "^";
    case BinaryOp::kBitXnor: return "~^";
    case BinaryOp::kLogAnd: return "&&";
    case BinaryOp::kLogOr: return "||";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNeq: return "!=";
    case BinaryOp::kCaseEq: return "===";
    case BinaryOp::kCaseNeq: return "!==";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kShl: return "<<";
    case BinaryOp::kShr: return ">>";
    case BinaryOp::kAShl: return "<<<";
    case BinaryOp::kAShr: return ">>>";
  }
  return "?";
}

ExprPtr make_identifier(std::string name, SourceLocation loc) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIdentifier;
  e->text = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr make_number(std::string literal, SourceLocation loc) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNumber;
  e->text = std::move(literal);
  e->loc = loc;
  return e;
}

ExprPtr make_unary(UnaryOp op, ExprPtr a, SourceLocation loc) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->op_unary = op;
  e->loc = loc;
  e->operands.push_back(std::move(a));
  return e;
}

ExprPtr make_binary(BinaryOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->op_binary = op;
  e->loc = a == nullptr ? SourceLocation{} : a->loc;
  e->operands.push_back(std::move(a));
  e->operands.push_back(std::move(b));
  return e;
}

namespace {

/// Parse the numeric value of a Verilog literal; nullopt for x/z digits.
std::optional<long long> literal_value(const std::string& text) {
  std::string digits;
  char base = 'd';
  const std::size_t quote = text.find('\'');
  if (quote == std::string::npos) {
    digits = text;
  } else {
    std::size_t base_pos = quote + 1;
    if (base_pos < text.size() &&
        (text[base_pos] == 's' || text[base_pos] == 'S')) {
      ++base_pos;
    }
    if (base_pos >= text.size()) return std::nullopt;
    base = static_cast<char>(std::tolower(static_cast<unsigned char>(text[base_pos])));
    digits = text.substr(base_pos + 1);
  }
  std::string clean;
  for (char c : digits) {
    if (c == '_') continue;
    const char lower = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (lower == 'x' || lower == 'z' || lower == '?') return std::nullopt;
    clean.push_back(c);
  }
  if (clean.empty()) return std::nullopt;
  int radix = 10;
  switch (base) {
    case 'b': radix = 2; break;
    case 'o': radix = 8; break;
    case 'd': radix = 10; break;
    case 'h': radix = 16; break;
    default: return std::nullopt;
  }
  if (clean.find('.') != std::string::npos) return std::nullopt;  // real
  try {
    return std::stoll(clean, nullptr, radix);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<long long> fold_constant(
    const Expr& e, const std::vector<std::pair<std::string, long long>>& env) {
  switch (e.kind) {
    case ExprKind::kNumber:
      return literal_value(e.text);
    case ExprKind::kIdentifier: {
      for (const auto& [name, value] : env) {
        if (name == e.text) return value;
      }
      return std::nullopt;
    }
    case ExprKind::kUnary: {
      const auto a = fold_constant(*e.operands[0], env);
      if (!a) return std::nullopt;
      switch (e.op_unary) {
        case UnaryOp::kPlus: return *a;
        case UnaryOp::kMinus: return -*a;
        case UnaryOp::kBitNot: return ~*a;
        case UnaryOp::kLogNot: return *a == 0 ? 1 : 0;
        default: return std::nullopt;  // reductions need bit widths
      }
    }
    case ExprKind::kBinary: {
      const auto a = fold_constant(*e.operands[0], env);
      const auto b = fold_constant(*e.operands[1], env);
      if (!a || !b) return std::nullopt;
      switch (e.op_binary) {
        case BinaryOp::kAdd: return *a + *b;
        case BinaryOp::kSub: return *a - *b;
        case BinaryOp::kMul: return *a * *b;
        case BinaryOp::kDiv: return *b == 0 ? std::optional<long long>{} : *a / *b;
        case BinaryOp::kMod: return *b == 0 ? std::optional<long long>{} : *a % *b;
        case BinaryOp::kShl: return *a << *b;
        case BinaryOp::kShr: return *a >> *b;
        case BinaryOp::kBitAnd: return *a & *b;
        case BinaryOp::kBitOr: return *a | *b;
        case BinaryOp::kBitXor: return *a ^ *b;
        case BinaryOp::kLogAnd: return (*a != 0 && *b != 0) ? 1 : 0;
        case BinaryOp::kLogOr: return (*a != 0 || *b != 0) ? 1 : 0;
        case BinaryOp::kEq: return *a == *b ? 1 : 0;
        case BinaryOp::kNeq: return *a != *b ? 1 : 0;
        case BinaryOp::kLt: return *a < *b ? 1 : 0;
        case BinaryOp::kLe: return *a <= *b ? 1 : 0;
        case BinaryOp::kGt: return *a > *b ? 1 : 0;
        case BinaryOp::kGe: return *a >= *b ? 1 : 0;
        default: return std::nullopt;
      }
    }
    case ExprKind::kTernary: {
      const auto c = fold_constant(*e.operands[0], env);
      if (!c) return std::nullopt;
      return fold_constant(*e.operands[*c != 0 ? 1 : 2], env);
    }
    default:
      return std::nullopt;
  }
}

std::string to_verilog(const Expr& e) {
  std::ostringstream os;
  switch (e.kind) {
    case ExprKind::kIdentifier:
    case ExprKind::kNumber:
      os << e.text;
      break;
    case ExprKind::kString:
      os << '"' << e.text << '"';
      break;
    case ExprKind::kUnary:
      os << '(' << to_string(e.op_unary) << to_verilog(*e.operands[0]) << ')';
      break;
    case ExprKind::kBinary:
      os << '(' << to_verilog(*e.operands[0]) << ' ' << to_string(e.op_binary)
         << ' ' << to_verilog(*e.operands[1]) << ')';
      break;
    case ExprKind::kTernary:
      os << '(' << to_verilog(*e.operands[0]) << " ? "
         << to_verilog(*e.operands[1]) << " : " << to_verilog(*e.operands[2])
         << ')';
      break;
    case ExprKind::kConcat: {
      os << '{';
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i != 0) os << ", ";
        os << to_verilog(*e.operands[i]);
      }
      os << '}';
      break;
    }
    case ExprKind::kRepeat:
      os << '{' << to_verilog(*e.operands[0]) << '{'
         << to_verilog(*e.operands[1]) << "}}";
      break;
    case ExprKind::kBitSelect:
      os << to_verilog(*e.operands[0]) << '[' << to_verilog(*e.operands[1])
         << ']';
      break;
    case ExprKind::kPartSelect:
      os << to_verilog(*e.operands[0]) << '[' << to_verilog(*e.operands[1])
         << ':' << to_verilog(*e.operands[2]) << ']';
      break;
    case ExprKind::kGateOp: {
      os << e.text << '(';
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i != 0) os << ", ";
        os << to_verilog(*e.operands[i]);
      }
      os << ')';
      break;
    }
  }
  return os.str();
}

const NetDecl* Module::find_net(const std::string& net_name) const {
  for (const NetDecl& net : nets) {
    if (net.name == net_name) return &net;
  }
  return nullptr;
}

const Module* Design::find_module(const std::string& module_name) const {
  for (const Module& m : modules) {
    if (m.name == module_name) return &m;
  }
  return nullptr;
}

}  // namespace gnn4ip::verilog
