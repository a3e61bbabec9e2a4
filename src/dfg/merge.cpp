#include "dfg/merge.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "dfg/node_kind.h"
#include "util/contract.h"

namespace gnn4ip::dfg {
namespace {

using graph::Digraph;
using graph::NodeId;
using verilog::Expr;
using verilog::ExprKind;
using verilog::ExprPtr;

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

  /// Convert an expression tree to DFG nodes; returns the root node.
  NodeId convert(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIdentifier:
        return signal_node(e.text);
      case ExprKind::kNumber:
      case ExprKind::kString:
        return constant_node(e.text);
      case ExprKind::kUnary: {
        // Unary plus is a no-op: skip the node entirely.
        if (e.op_unary == verilog::UnaryOp::kPlus) {
          return convert(*e.operands[0]);
        }
        const NodeId op = operator_node(kind_of(e.op_unary));
        g_.add_edge(op, convert(*e.operands[0]));
        return op;
      }
      case ExprKind::kBinary: {
        const NodeId op = operator_node(kind_of(e.op_binary));
        g_.add_edge(op, convert(*e.operands[0]));
        g_.add_edge(op, convert(*e.operands[1]));
        return op;
      }
      case ExprKind::kTernary: {
        const NodeId op = operator_node(NodeKind::kMux);
        for (const ExprPtr& child : e.operands) {
          g_.add_edge(op, convert(*child));
        }
        return op;
      }
      case ExprKind::kConcat: {
        const NodeId op = operator_node(NodeKind::kConcat);
        for (const ExprPtr& child : e.operands) {
          g_.add_edge(op, convert(*child));
        }
        return op;
      }
      case ExprKind::kRepeat: {
        const NodeId op = operator_node(NodeKind::kRepeat);
        for (const ExprPtr& child : e.operands) {
          g_.add_edge(op, convert(*child));
        }
        return op;
      }
      case ExprKind::kBitSelect: {
        const NodeId op = operator_node(NodeKind::kBitSelect);
        g_.add_edge(op, convert(*e.operands[0]));
        g_.add_edge(op, convert(*e.operands[1]));
        return op;
      }
      case ExprKind::kPartSelect: {
        const NodeId op = operator_node(NodeKind::kPartSelect);
        for (const ExprPtr& child : e.operands) {
          g_.add_edge(op, convert(*child));
        }
        return op;
      }
      case ExprKind::kGateOp: {
        const NodeId op = operator_node(kind_of_gate(e.text, e.loc));
        for (const ExprPtr& child : e.operands) {
          g_.add_edge(op, convert(*child));
        }
        return op;
      }
    }
    GNN4IP_ENSURE(false, "unhandled expression kind in merge");
    return graph::kInvalidNode;
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
};

}  // namespace

graph::Digraph merge_drivers(const verilog::Module& flat,
                             const std::vector<SignalDriver>& drivers) {
  Merger merger(flat, drivers);
  return merger.run();
}

}  // namespace gnn4ip::dfg
