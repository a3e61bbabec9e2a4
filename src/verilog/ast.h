// Abstract syntax tree for the supported Verilog subset.
//
// The subset covers what the GNN4IP corpus uses (and what Pyverilog's
// dataflow analyzer consumes in the original paper): modules with
// ANSI/non-ANSI ports, wire/reg/integer/parameter declarations,
// continuous assigns, always/initial blocks with begin/if/case and
// blocking/non-blocking assignments, gate primitives, and module
// instantiation with ordered or named connections and parameter
// overrides. Unsupported constructs (functions, tasks, generate, for
// loops in synthesis position) raise ParseError with a location.
//
// Expressions and statements are shared and immutable once built
// (`ExprPtr`, `StmtPtr`), so copying a Module or a Design copies
// pointers to its trees, never the trees.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "verilog/diagnostics.h"

namespace gnn4ip::verilog {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class UnaryOp {
  kPlus, kMinus, kBitNot, kLogNot,
  kRedAnd, kRedOr, kRedXor, kRedNand, kRedNor, kRedXnor,
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod, kPow,
  kBitAnd, kBitOr, kBitXor, kBitXnor,
  kLogAnd, kLogOr,
  kEq, kNeq, kCaseEq, kCaseNeq,
  kLt, kLe, kGt, kGe,
  kShl, kShr, kAShl, kAShr,
};

/// Spelled operator (for diagnostics and DFG node names).
[[nodiscard]] const char* to_string(UnaryOp op);
[[nodiscard]] const char* to_string(BinaryOp op);

enum class ExprKind {
  kIdentifier,   // text = name
  kNumber,       // text = literal
  kString,       // text = contents
  kUnary,        // op_unary, operands[0]
  kBinary,       // op_binary, operands[0], operands[1]
  kTernary,      // operands[0] ? operands[1] : operands[2]
  kConcat,       // {operands...}
  kRepeat,       // {operands[0]{operands[1]}} — count, value
  kBitSelect,    // operands[0][operands[1]]  (base is identifier expr)
  kPartSelect,   // operands[0][operands[1]:operands[2]]
  kGateOp,       // synthetic: primitive gate as an expression; text = gate
                 // type ("and", "nor", ...), operands = gate inputs. Only
                 // produced by the DFG dataflow analyzer, never the parser.
};

struct Expr;
/// Expressions are immutable once built, so a subtree is shared wherever
/// it appears (symbolic dataflow and elaboration reuse nodes rather than
/// copying them).
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  ExprKind kind = ExprKind::kNumber;
  std::string text;
  UnaryOp op_unary = UnaryOp::kPlus;
  BinaryOp op_binary = BinaryOp::kAdd;
  std::vector<ExprPtr> operands;
  SourceLocation loc;
};

[[nodiscard]] ExprPtr make_identifier(std::string name, SourceLocation loc = {});
[[nodiscard]] ExprPtr make_number(std::string literal, SourceLocation loc = {});
[[nodiscard]] ExprPtr make_unary(UnaryOp op, ExprPtr a, SourceLocation loc);
[[nodiscard]] ExprPtr make_binary(BinaryOp op, ExprPtr a, ExprPtr b);

/// Try to evaluate to a 64-bit constant given parameter bindings
/// (identifier -> value). Returns nullopt for non-constant expressions.
[[nodiscard]] std::optional<long long> fold_constant(
    const Expr& e,
    const std::vector<std::pair<std::string, long long>>& env = {});

/// Round-trip an expression back to Verilog text (used by the variant
/// engine and tests).
[[nodiscard]] std::string to_verilog(const Expr& e);

// ---------------------------------------------------------------------------
// Statements (inside always/initial)
// ---------------------------------------------------------------------------

enum class StmtKind {
  kBlock,        // begin ... end              -> children
  kIf,           // if (cond) then else        -> cond, children[0], children[1] (may be null)
  kCase,         // case (subject) items       -> subject, case_items
  kBlockingAssign,     // lhs = rhs
  kNonblockingAssign,  // lhs <= rhs
  kNull,         // ;
};

struct Stmt;
/// Statements are immutable once built, like expressions, so a module's
/// statement trees are shared by its copies: elaborate copies a node only
/// where a rewrite changes something under it.
using StmtPtr = std::shared_ptr<const Stmt>;

struct CaseItem {
  std::vector<ExprPtr> labels;  // empty => default
  StmtPtr body;                 // may be null (empty statement)
};

struct Stmt {
  StmtKind kind = StmtKind::kNull;
  ExprPtr cond;                  // kIf condition or kCase subject
  ExprPtr lhs;                   // assignments
  ExprPtr rhs;
  std::vector<StmtPtr> children; // kBlock statements; kIf then/else
  std::vector<CaseItem> case_items;
  bool casex = false;            // kCase: casex/casez variant
  SourceLocation loc;
};

// ---------------------------------------------------------------------------
// Module items
// ---------------------------------------------------------------------------

enum class PortDirection { kInput, kOutput, kInout };

enum class NetType { kWire, kReg, kInteger, kSupply0, kSupply1, kTri };

struct Range {
  ExprPtr msb;
  ExprPtr lsb;
};

/// Declaration of one or more nets sharing direction/type/range is split
/// into one NetDecl per name during parsing.
struct NetDecl {
  std::string name;
  NetType type = NetType::kWire;
  std::optional<PortDirection> direction;  // set for ports
  std::optional<Range> range;
  bool is_signed = false;
  ExprPtr init;  // wire w = expr;
  SourceLocation loc;
};

struct ParamDecl {
  std::string name;
  ExprPtr value;
  bool local = false;  // localparam
  SourceLocation loc;
};

struct ContinuousAssign {
  ExprPtr lhs;
  ExprPtr rhs;
  SourceLocation loc;
};

enum class EdgeKind { kNone, kPosedge, kNegedge };

struct SensitivityItem {
  EdgeKind edge = EdgeKind::kNone;
  ExprPtr signal;  // null for @*
};

struct AlwaysBlock {
  bool is_initial = false;            // initial blocks are parsed, ignored by DFG
  bool sensitivity_star = false;      // @* or @(*)
  std::vector<SensitivityItem> sensitivity;
  StmtPtr body;
  SourceLocation loc;
};

/// Primitive gate instance: and/or/xor/xnor/nand/nor/not/buf.
struct GateInstance {
  std::string gate_type;
  std::string instance_name;          // may be empty
  std::vector<ExprPtr> terminals;     // first = output(s), rest = inputs
  SourceLocation loc;
};

struct PortConnection {
  std::string port_name;  // empty for positional
  ExprPtr actual;         // may be null for .port()
};

struct ModuleInstance {
  std::string module_name;
  std::string instance_name;
  std::vector<PortConnection> parameter_overrides;  // #(...) — named or positional
  std::vector<PortConnection> connections;
  SourceLocation loc;
};

struct Module {
  std::string name;
  std::vector<std::string> port_order;  // header order
  std::vector<NetDecl> nets;
  std::vector<ParamDecl> params;
  std::vector<ContinuousAssign> assigns;
  std::vector<AlwaysBlock> always_blocks;
  std::vector<GateInstance> gates;
  std::vector<ModuleInstance> instances;
  SourceLocation loc;

  [[nodiscard]] const NetDecl* find_net(const std::string& name) const;
};

/// A parsed source file: one or more modules.
struct Design {
  std::vector<Module> modules;

  [[nodiscard]] const Module* find_module(const std::string& name) const;
};

}  // namespace gnn4ip::verilog
