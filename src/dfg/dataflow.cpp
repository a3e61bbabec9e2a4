#include "dfg/dataflow.h"

#include <map>
#include <set>

#include "util/contract.h"

namespace gnn4ip::dfg {
namespace {

using verilog::CaseItem;
using verilog::Expr;
using verilog::ExprKind;
using verilog::ExprPtr;
using verilog::GateInstance;
using verilog::Module;
using verilog::ParseError;
using verilog::Stmt;
using verilog::StmtKind;
using verilog::StmtPtr;

/// Symbolic value environment for one procedural block. Values are shared
/// immutable trees, so copying an environment copies pointers only.
struct ProcEnv {
  // Current values as seen by *blocking* reads.
  std::map<std::string, ExprPtr> blocking;
  // Values scheduled by non-blocking assignments (committed at block end).
  std::map<std::string, ExprPtr> nonblocking;
};

/// Substitute blocking-assigned signals with their current trees so later
/// reads inside the same block see updated values. An identifier's
/// current value is returned as is, and `e` itself when nothing under it
/// changed, so a value costs the statement that built it, not its depth.
ExprPtr subst(const ExprPtr& e, const std::map<std::string, ExprPtr>& env) {
  if (e->kind == ExprKind::kIdentifier) {
    const auto it = env.find(e->text);
    return it == env.end() ? e : it->second;
  }
  std::shared_ptr<Expr> copy;  // made at the first operand that changes
  for (std::size_t i = 0; i < e->operands.size(); ++i) {
    ExprPtr value = subst(e->operands[i], env);
    if (value == e->operands[i]) continue;
    if (copy == nullptr) copy = std::make_shared<Expr>(*e);
    copy->operands[i] = std::move(value);
  }
  if (copy == nullptr) return e;
  return copy;
}

ExprPtr make_ternary(ExprPtr cond, ExprPtr when_true, ExprPtr when_false) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kTernary;
  e->loc = cond->loc;
  e->operands.push_back(std::move(cond));
  e->operands.push_back(std::move(when_true));
  e->operands.push_back(std::move(when_false));
  return e;
}

/// Names assigned anywhere in `lhs` (handles concat/select lvalues).
void lvalue_targets(const Expr& lhs, std::vector<const Expr*>& out) {
  switch (lhs.kind) {
    case ExprKind::kIdentifier:
      out.push_back(&lhs);
      return;
    case ExprKind::kBitSelect:
    case ExprKind::kPartSelect:
      // Base of the select is the driven signal; index expressions add
      // data dependencies handled by the caller.
      lvalue_targets(*lhs.operands[0], out);
      return;
    case ExprKind::kConcat:
      for (const ExprPtr& part : lhs.operands) {
        lvalue_targets(*part, out);
      }
      return;
    default:
      throw ParseError("unsupported lvalue in assignment", lhs.loc);
  }
}

/// Collect index expressions on the LHS (they are data dependencies of the
/// driven signal even though they are not the "value").
void lvalue_index_exprs(const Expr& lhs, std::vector<ExprPtr>& out) {
  switch (lhs.kind) {
    case ExprKind::kBitSelect:
      out.push_back(lhs.operands[1]);
      lvalue_index_exprs(*lhs.operands[0], out);
      return;
    case ExprKind::kPartSelect:
      out.push_back(lhs.operands[1]);
      out.push_back(lhs.operands[2]);
      lvalue_index_exprs(*lhs.operands[0], out);
      return;
    case ExprKind::kConcat:
      for (const ExprPtr& part : lhs.operands) {
        lvalue_index_exprs(*part, out);
      }
      return;
    default:
      return;
  }
}

class ProceduralAnalyzer {
 public:
  void exec(const Stmt& s, ProcEnv& env) {
    switch (s.kind) {
      case StmtKind::kNull:
        return;
      case StmtKind::kBlock:
        for (const StmtPtr& child : s.children) {
          if (child != nullptr) exec(*child, env);
        }
        return;
      case StmtKind::kBlockingAssign:
      case StmtKind::kNonblockingAssign:
        exec_assign(s, env);
        return;
      case StmtKind::kIf:
        exec_if(s, env);
        return;
      case StmtKind::kCase:
        exec_case(s, env);
        return;
    }
  }

 private:
  void exec_assign(const Stmt& s, ProcEnv& env) {
    GNN4IP_ENSURE(s.lhs != nullptr && s.rhs != nullptr,
                  "assignment missing operands");
    ExprPtr value = subst(s.rhs, env.blocking);
    std::vector<const Expr*> targets;
    lvalue_targets(*s.lhs, targets);
    std::vector<ExprPtr> indices;
    lvalue_index_exprs(*s.lhs, indices);
    // Index expressions on the LHS become extra dependencies: wrap the
    // value in a concat so they stay attached to the driven signal.
    if (!indices.empty()) {
      auto wrapper = std::make_shared<Expr>();
      wrapper->kind = ExprKind::kConcat;
      wrapper->loc = s.loc;
      wrapper->operands.push_back(std::move(value));
      for (const ExprPtr& idx : indices) {
        wrapper->operands.push_back(subst(idx, env.blocking));
      }
      value = std::move(wrapper);
    }
    auto& store = s.kind == StmtKind::kBlockingAssign ? env.blocking
                                                      : env.nonblocking;
    const bool partial_write = !indices.empty();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      // Concat lvalues: every target depends on the full RHS value.
      auto it = store.find(targets[i]->text);
      if (it != store.end() && partial_write) {
        // Partial (indexed) writes update only a slice, so earlier
        // assignments to other bits remain live: merge both trees.
        auto merged = std::make_shared<Expr>();
        merged->kind = ExprKind::kConcat;
        merged->loc = s.loc;
        merged->operands.push_back(std::move(it->second));
        merged->operands.push_back(value);
        it->second = std::move(merged);
      } else {
        store[targets[i]->text] = value;
      }
    }
  }

  void merge_branches(ProcEnv& env, const ExprPtr& cond,
                      const ProcEnv& then_env, const ProcEnv& else_env) {
    auto merge_store = [&cond](std::map<std::string, ExprPtr>& base,
                               const std::map<std::string, ExprPtr>& then_s,
                               const std::map<std::string, ExprPtr>& else_s) {
      std::set<std::string> touched;
      for (const auto& [k, v] : then_s) touched.insert(k);
      for (const auto& [k, v] : else_s) touched.insert(k);
      for (const std::string& name : touched) {
        auto value_in = [&name](const std::map<std::string, ExprPtr>& store,
                                const std::map<std::string, ExprPtr>& fallback)
            -> ExprPtr {
          const auto it = store.find(name);
          if (it != store.end()) return it->second;
          const auto fb = fallback.find(name);
          if (fb != fallback.end()) return fb->second;
          // Not assigned on this path: the signal holds its previous value.
          return verilog::make_identifier(name);
        };
        base[name] = make_ternary(cond, value_in(then_s, base),
                                  value_in(else_s, base));
      }
    };
    merge_store(env.blocking, then_env.blocking, else_env.blocking);
    merge_store(env.nonblocking, then_env.nonblocking, else_env.nonblocking);
  }

  void exec_if(const Stmt& s, ProcEnv& env) {
    GNN4IP_ENSURE(s.cond != nullptr && s.children.size() == 2,
                  "malformed if statement");
    const ExprPtr cond = subst(s.cond, env.blocking);
    ProcEnv then_env = env;
    if (s.children[0] != nullptr) exec(*s.children[0], then_env);
    ProcEnv else_env = env;
    if (s.children[1] != nullptr) exec(*s.children[1], else_env);
    merge_branches(env, cond, then_env, else_env);
  }

  void exec_case(const Stmt& s, ProcEnv& env) {
    GNN4IP_ENSURE(s.cond != nullptr, "case without subject");
    const ExprPtr subject = subst(s.cond, env.blocking);

    // Execute every arm against a copy of the incoming environment.
    struct Arm {
      ExprPtr condition;  // null for default
      ProcEnv env;
    };
    std::vector<Arm> arms;
    const CaseItem* default_item = nullptr;
    for (const CaseItem& item : s.case_items) {
      if (item.labels.empty()) {
        default_item = &item;
        continue;
      }
      Arm arm;
      // Multi-label arms: subject == l1 || subject == l2 || ...
      for (const ExprPtr& label : item.labels) {
        ExprPtr eq = verilog::make_binary(verilog::BinaryOp::kEq, subject,
                                          subst(label, env.blocking));
        arm.condition = arm.condition == nullptr
                            ? std::move(eq)
                            : verilog::make_binary(verilog::BinaryOp::kLogOr,
                                                   std::move(arm.condition),
                                                   std::move(eq));
      }
      arm.env = env;
      if (item.body != nullptr) exec(*item.body, arm.env);
      arms.push_back(std::move(arm));
    }
    ProcEnv default_env = env;
    if (default_item != nullptr && default_item->body != nullptr) {
      exec(*default_item->body, default_env);
    }

    // Fold arms from the bottom (priority order): result starts as the
    // default branch and each arm wraps it in a mux.
    ProcEnv result = std::move(default_env);
    for (auto it = arms.rbegin(); it != arms.rend(); ++it) {
      ProcEnv merged = env;
      merge_branches(merged, it->condition, it->env, result);
      result = std::move(merged);
    }
    env = std::move(result);
  }
};

}  // namespace

std::vector<SignalDriver> analyze_dataflow(const Module& flat) {
  GNN4IP_ENSURE(flat.instances.empty(),
                "analyze_dataflow requires an elaborated (flattened) module");
  std::vector<SignalDriver> drivers;

  // Continuous assigns.
  for (const verilog::ContinuousAssign& ca : flat.assigns) {
    std::vector<const Expr*> targets;
    lvalue_targets(*ca.lhs, targets);
    std::vector<ExprPtr> indices;
    lvalue_index_exprs(*ca.lhs, indices);
    ExprPtr tree = ca.rhs;
    if (!indices.empty()) {
      auto wrapper = std::make_shared<Expr>();
      wrapper->kind = ExprKind::kConcat;
      wrapper->loc = ca.loc;
      wrapper->operands.push_back(std::move(tree));
      wrapper->operands.insert(wrapper->operands.end(), indices.begin(),
                               indices.end());
      tree = std::move(wrapper);
    }
    for (const Expr* target : targets) {
      drivers.push_back({target->text, tree});
    }
  }

  // Gate primitives.
  for (const GateInstance& gate : flat.gates) {
    const bool inverterish =
        gate.gate_type == "not" || gate.gate_type == "buf";
    // not/buf: (out1 [, out2, ...], in); others: (out, in1, in2, ...).
    const auto split = inverterish ? gate.terminals.end() - 1
                                   : gate.terminals.begin() + 1;
    auto op_expr = std::make_shared<Expr>();
    op_expr->loc = gate.loc;
    op_expr->kind = ExprKind::kGateOp;
    op_expr->text = gate.gate_type;
    op_expr->operands.assign(split, gate.terminals.end());
    const ExprPtr tree = std::move(op_expr);
    std::vector<const Expr*> targets;
    for (auto out = gate.terminals.begin(); out != split; ++out) {
      lvalue_targets(**out, targets);
    }
    for (const Expr* target : targets) {
      drivers.push_back({target->text, tree});
    }
  }

  // Procedural blocks.
  for (const verilog::AlwaysBlock& ab : flat.always_blocks) {
    if (ab.is_initial || ab.body == nullptr) continue;
    bool edge_triggered = false;
    for (const verilog::SensitivityItem& item : ab.sensitivity) {
      if (item.edge != verilog::EdgeKind::kNone) edge_triggered = true;
    }
    ProceduralAnalyzer analyzer;
    ProcEnv env;
    analyzer.exec(*ab.body, env);
    auto emit = [&drivers, edge_triggered](
                    const std::map<std::string, ExprPtr>& store) {
      for (const auto& [name, tree] : store) {
        drivers.push_back({name, tree, edge_triggered});
      }
    };
    emit(env.blocking);
    emit(env.nonblocking);
  }

  return drivers;
}

}  // namespace gnn4ip::dfg
