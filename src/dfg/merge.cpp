#include "dfg/merge.h"

#include <string>
#include <string_view>
#include <vector>

#include "dfg/node_kind.h"
#include "util/contract.h"
#include "util/name_map.h"

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
      : flat_(flat),
        drivers_(drivers),
        // Elaborate declares every net a driver names, implicit ones too,
        // so the nets size the table; a name used only in a net
        // initializer grows it.
        signals_(flat.nets.size()) {}

  Digraph run() {
    // Registers are collected before the first node exists, so each signal
    // is classified once, when it is created.
    for (const SignalDriver& driver : drivers_) {
      if (driver.is_register) registers_.try_emplace(driver.signal, true);
    }
    const std::size_t expected = flat_.nets.size() + drivers_.size();
    nodes_.reserve(expected);
    edges_.reserve(expected);
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
      edges_.emplace_back(sig, root);
    }
    return Digraph(std::move(nodes_), edges_);
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
    if (registers_.find(name) != nullptr) return NodeKind::kRegister;
    return NodeKind::kSignal;
  }

  NodeId signal_node(std::string_view name,
                     const verilog::NetDecl* decl = nullptr) {
    const auto [id, created] = signals_.try_emplace(name, next_id());
    if (created) {
      new_node(std::string(name),
               static_cast<int>(classify_signal(name, decl)));
    }
    return *id;
  }

  NodeId constant_node(std::string_view literal) {
    const auto [id, created] = constants_.try_emplace(literal, next_id());
    if (created) {
      new_node(std::string(literal), static_cast<int>(NodeKind::kConstant));
    }
    return *id;
  }

  [[nodiscard]] NodeId next_id() const {
    return static_cast<NodeId>(nodes_.size());
  }

  NodeId operator_node(NodeKind kind) {
    return new_node(to_string(kind), static_cast<int>(kind));
  }

  NodeId new_node(std::string name, int kind) {
    nodes_.push_back({std::move(name), kind});
    return static_cast<NodeId>(nodes_.size() - 1);
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
      if (done != graph::kInvalidNode) edges_.emplace_back(top.op, done);
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
  // The graph is built once from these, in creation order; a repeated
  // edge keeps its first occurrence.
  std::vector<graph::Node> nodes_;
  std::vector<graph::Edge> edges_;
  // Keys view names in `flat_`, in `drivers_` and in their expressions,
  // which outlive the merge.
  util::NameMap<NodeId> signals_;
  util::NameMap<NodeId> constants_;
  util::NameMap<bool> registers_;
  std::vector<Frame> stack_;
};

}  // namespace

graph::Digraph merge_drivers(const verilog::Module& flat,
                             const std::vector<SignalDriver>& drivers) {
  Merger merger(flat, drivers);
  return merger.run();
}

}  // namespace gnn4ip::dfg
