#include "dfg/merge.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dfg/node_kind.h"
#include "util/contract.h"

namespace gnn4ip::dfg {
namespace {

using graph::Digraph;
using graph::NodeId;
using verilog::Expr;
using verilog::ExprKind;

class Merger {
 public:
  Merger(const verilog::Module& flat,
         const std::vector<SignalDriver>& drivers)
      : flat_(flat), drivers_(drivers) {}

  Digraph run() {
    // Registers are collected before the first node exists, so each signal
    // is classified once, when it is created.
    for (const SignalDriver& driver : drivers_) {
      if (driver.is_register) registers_.insert(driver.signal);
    }
    // Pre-create signal nodes for everything declared or driven so that
    // identifier references resolve to shared vertices. A name's node is
    // created, and classified, at its first declaration (the one a lookup
    // by name finds), so a node created later has no declaration.
    for (const verilog::NetDecl& net : flat_.nets) {
      (void)signal_node(net.name, &net);
    }
    for (const SignalDriver& driver : drivers_) {
      const NodeId sig = signal_node(driver.signal);
      const NodeId root = convert(*driver.tree);
      g_.add_edge(sig, root);
    }
    return std::move(g_);
  }

 private:
  NodeKind classify_signal(std::string_view name,
                           const verilog::NetDecl* net) const {
    if (net != nullptr && net->direction.has_value()) {
      switch (*net->direction) {
        case verilog::PortDirection::kInput:
          return NodeKind::kInput;
        case verilog::PortDirection::kOutput:
          return NodeKind::kOutput;
        case verilog::PortDirection::kInout:
          return NodeKind::kSignal;
      }
    }
    if (registers_.count(name) > 0) return NodeKind::kRegister;
    return NodeKind::kSignal;
  }

  NodeId signal_node(std::string_view name,
                     const verilog::NetDecl* decl = nullptr) {
    const auto it = signals_.find(name);
    if (it != signals_.end()) return it->second;
    const NodeId id = g_.add_node(
        std::string(name), static_cast<int>(classify_signal(name, decl)));
    signals_.emplace(name, id);
    return id;
  }

  NodeId constant_node(std::string_view literal) {
    const auto it = constants_.find(literal);
    if (it != constants_.end()) return it->second;
    const NodeId id = g_.add_node(std::string(literal),
                                  static_cast<int>(NodeKind::kConstant));
    constants_.emplace(literal, id);
    return id;
  }

  NodeId operator_node(NodeKind kind) {
    return g_.add_node(to_string(kind), static_cast<int>(kind));
  }

  /// An operator whose operands are being converted.
  struct Frame {
    const Expr* e;
    NodeId op;
    std::size_t next;  // operands[next] is converted next
  };

  static NodeKind operator_kind(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kUnary: return kind_of(e.op_unary);
      case ExprKind::kBinary: return kind_of(e.op_binary);
      case ExprKind::kTernary: return NodeKind::kMux;
      case ExprKind::kConcat: return NodeKind::kConcat;
      case ExprKind::kRepeat: return NodeKind::kRepeat;
      case ExprKind::kBitSelect: return NodeKind::kBitSelect;
      case ExprKind::kPartSelect: return NodeKind::kPartSelect;
      case ExprKind::kGateOp: return kind_of_gate(e.text, e.loc);
      case ExprKind::kIdentifier:
      case ExprKind::kNumber:
      case ExprKind::kString:
        break;
    }
    GNN4IP_ENSURE(false, "unhandled expression kind in merge");
    return NodeKind::kSignal;
  }

  /// Start converting `e`: a signal or constant resolves to its node at
  /// once; an operator gets a new node, pushed to `stack_` so its
  /// operands follow, and kInvalidNode is returned.
  NodeId open(const Expr* e) {
    // Unary plus is a no-op: skip the node entirely.
    while (e->kind == ExprKind::kUnary &&
           e->op_unary == verilog::UnaryOp::kPlus) {
      e = e->operands[0].get();
    }
    if (e->kind == ExprKind::kIdentifier) return signal_node(e->text);
    if (e->kind == ExprKind::kNumber || e->kind == ExprKind::kString) {
      return constant_node(e->text);
    }
    stack_.push_back({e, operator_node(operator_kind(*e)), 0});
    return graph::kInvalidNode;
  }

  /// Convert an expression tree to DFG nodes; returns the root node. A
  /// shared subtree is expanded once per use. The walk keeps its own
  /// stack, since a blocking-assign chain nests one level per statement;
  /// as in a recursive walk, an operator node is created before its
  /// operands and gets its edges in operand order, each added once that
  /// operand's subtree is done.
  NodeId convert(const Expr& root) {
    NodeId done = open(&root);
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      if (done != graph::kInvalidNode) g_.add_edge(top.op, done);
      if (top.next == top.e->operands.size()) {
        done = top.op;
        stack_.pop_back();
      } else {
        const Expr* operand = top.e->operands[top.next++].get();
        done = open(operand);
      }
    }
    return done;
  }

  const verilog::Module& flat_;
  const std::vector<SignalDriver>& drivers_;
  Digraph g_;
  // Lookup only, never iterated, so node ids and edges follow creation
  // order. Keys view names in `flat_` and `drivers_`, which outlive the
  // merge.
  std::unordered_map<std::string_view, NodeId> signals_;
  std::unordered_map<std::string_view, NodeId> constants_;
  std::unordered_set<std::string_view> registers_;
  std::vector<Frame> stack_;
};

}  // namespace

graph::Digraph merge_drivers(const verilog::Module& flat,
                             const std::vector<SignalDriver>& drivers) {
  Merger merger(flat, drivers);
  return merger.run();
}

}  // namespace gnn4ip::dfg
