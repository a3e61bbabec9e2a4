#include "verilog/elaborate.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "util/contract.h"
#include "util/string_util.h"

namespace gnn4ip::verilog {
namespace {

using ParamEnv = std::vector<std::pair<std::string, long long>>;

/// Per-module-inlining context: how identifiers get rewritten.
struct RewriteContext {
  std::string prefix;                 // "" for top, "u1." style otherwise
  const ParamEnv* params = nullptr;
};

std::string prefixed(const RewriteContext& ctx, std::string_view name) {
  std::string out = ctx.prefix;
  out += name;
  return out;
}

/// `e` with parameters folded to constants and nets prefixed. Returns `e`
/// itself when nothing under it changes, so a flat top module shares its
/// expressions instead of rebuilding them.
ExprPtr rewrite_expr(const ExprPtr& e, const RewriteContext& ctx) {
  if (e == nullptr || (ctx.prefix.empty() && ctx.params->empty())) return e;
  if (e->kind == ExprKind::kIdentifier) {
    // Parameter use -> constant.
    for (const auto& [name, value] : *ctx.params) {
      if (name == e->text) {
        return make_number(std::to_string(value), e->loc);
      }
    }
    // Known or implicit net -> prefixed name. Identifiers that are not
    // declared are implicit wires; they are registered by the caller
    // before rewriting, so every non-parameter identifier is a net.
    if (ctx.prefix.empty()) return e;
    return make_identifier(prefixed(ctx, e->text), e->loc);
  }
  std::shared_ptr<Expr> copy;  // made at the first operand that changes
  for (std::size_t i = 0; i < e->operands.size(); ++i) {
    ExprPtr child = rewrite_expr(e->operands[i], ctx);
    if (child == e->operands[i]) continue;
    if (copy == nullptr) copy = std::make_shared<Expr>(*e);
    copy->operands[i] = std::move(child);
  }
  if (copy == nullptr) return e;
  return copy;
}

StmtPtr rewrite_stmt(const Stmt& s, const RewriteContext& ctx) {
  auto copy = std::make_unique<Stmt>();
  copy->kind = s.kind;
  copy->casex = s.casex;
  copy->loc = s.loc;
  copy->cond = rewrite_expr(s.cond, ctx);
  copy->lhs = rewrite_expr(s.lhs, ctx);
  copy->rhs = rewrite_expr(s.rhs, ctx);
  for (const StmtPtr& child : s.children) {
    copy->children.push_back(child == nullptr ? nullptr
                                              : rewrite_stmt(*child, ctx));
  }
  for (const CaseItem& item : s.case_items) {
    CaseItem ci;
    for (const ExprPtr& label : item.labels) {
      ci.labels.push_back(rewrite_expr(label, ctx));
    }
    ci.body = item.body == nullptr ? nullptr : rewrite_stmt(*item.body, ctx);
    copy->case_items.push_back(std::move(ci));
  }
  return copy;
}

/// Collect every identifier that appears in expression position. The views
/// point into the module's own expressions.
void collect_identifiers(const Expr& e,
                         std::unordered_set<std::string_view>& out) {
  if (e.kind == ExprKind::kIdentifier) out.insert(e.text);
  for (const ExprPtr& child : e.operands) {
    if (child != nullptr) collect_identifiers(*child, out);
  }
}

void collect_identifiers(const Stmt& s,
                         std::unordered_set<std::string_view>& out) {
  if (s.cond != nullptr) collect_identifiers(*s.cond, out);
  if (s.lhs != nullptr) collect_identifiers(*s.lhs, out);
  if (s.rhs != nullptr) collect_identifiers(*s.rhs, out);
  for (const StmtPtr& child : s.children) {
    if (child != nullptr) collect_identifiers(*child, out);
  }
  for (const CaseItem& item : s.case_items) {
    for (const ExprPtr& label : item.labels) collect_identifiers(*label, out);
    if (item.body != nullptr) collect_identifiers(*item.body, out);
  }
}

class Elaborator {
 public:
  Elaborator(const Design& design, const ElaborateOptions& options)
      : design_(design), options_(options) {}

  Module run(const std::string& top_name) {
    const Module* top = design_.find_module(top_name);
    if (top == nullptr) {
      throw ParseError("top module '" + top_name + "' not found", {1, 1});
    }
    Module out;
    out.name = top->name;
    out.port_order = top->port_order;
    out.loc = top->loc;
    inline_module(*top, /*prefix=*/"", /*overrides=*/{}, out,
                  /*depth=*/0, /*keep_ports=*/true);
    return out;
  }

 private:
  ParamEnv resolve_params(const Module& m,
                          const std::vector<std::pair<std::string, long long>>&
                              overrides) {
    ParamEnv env;
    for (const ParamDecl& p : m.params) {
      std::optional<long long> value;
      if (!p.local) {
        for (const auto& [name, v] : overrides) {
          if (name == p.name) {
            value = v;
            break;
          }
        }
      }
      if (!value.has_value()) {
        value = fold_constant(*p.value, env);
      }
      if (!value.has_value()) {
        throw ParseError(
            "cannot resolve parameter '" + p.name + "' of module " + m.name,
            p.loc);
      }
      env.emplace_back(p.name, *value);
    }
    return env;
  }

  void inline_module(const Module& m, const std::string& prefix,
                     const std::vector<std::pair<std::string, long long>>&
                         param_overrides,
                     Module& out, int depth, bool keep_ports) {
    if (depth > options_.max_depth) {
      throw ParseError("module hierarchy too deep (cycle?)", m.loc);
    }
    if (std::find(stack_.begin(), stack_.end(), m.name) != stack_.end()) {
      throw ParseError("recursive instantiation of module " + m.name, m.loc);
    }
    stack_.push_back(m.name);

    const ParamEnv env = resolve_params(m, param_overrides);

    // Identifiers used but neither declared nor parameters are implicit
    // nets, declared after the explicit ones in name order.
    std::unordered_set<std::string_view> used;
    for (const ContinuousAssign& ca : m.assigns) {
      collect_identifiers(*ca.lhs, used);
      collect_identifiers(*ca.rhs, used);
    }
    for (const AlwaysBlock& ab : m.always_blocks) {
      for (const SensitivityItem& item : ab.sensitivity) {
        if (item.signal != nullptr) collect_identifiers(*item.signal, used);
      }
      if (ab.body != nullptr) collect_identifiers(*ab.body, used);
    }
    for (const GateInstance& gate : m.gates) {
      for (const ExprPtr& t : gate.terminals) collect_identifiers(*t, used);
    }
    for (const ModuleInstance& inst : m.instances) {
      for (const PortConnection& conn : inst.connections) {
        if (conn.actual != nullptr) collect_identifiers(*conn.actual, used);
      }
    }
    for (const NetDecl& net : m.nets) used.erase(net.name);
    for (const auto& param : env) used.erase(param.first);
    std::vector<std::string_view> implicit(used.begin(), used.end());
    std::sort(implicit.begin(), implicit.end());

    RewriteContext ctx;
    ctx.prefix = prefix;
    ctx.params = &env;

    // Nets.
    for (const NetDecl& net : m.nets) {
      NetDecl copy;
      copy.name = prefixed(ctx, net.name);
      copy.type = net.type;
      copy.is_signed = net.is_signed;
      copy.loc = net.loc;
      if (keep_ports) copy.direction = net.direction;
      if (net.range.has_value()) {
        copy.range = Range{rewrite_expr(net.range->msb, ctx),
                           rewrite_expr(net.range->lsb, ctx)};
      }
      out.nets.push_back(std::move(copy));
      if (net.init != nullptr) {
        ContinuousAssign ca;
        ca.loc = net.loc;
        ca.lhs = make_identifier(prefixed(ctx, net.name), net.loc);
        ca.rhs = rewrite_expr(net.init, ctx);
        out.assigns.push_back(std::move(ca));
      }
    }
    for (const std::string_view name : implicit) {
      NetDecl copy;
      copy.name = prefixed(ctx, name);
      out.nets.push_back(std::move(copy));
    }

    // Behavior.
    for (const ContinuousAssign& ca : m.assigns) {
      ContinuousAssign copy;
      copy.loc = ca.loc;
      copy.lhs = rewrite_expr(ca.lhs, ctx);
      copy.rhs = rewrite_expr(ca.rhs, ctx);
      out.assigns.push_back(std::move(copy));
    }
    for (const AlwaysBlock& ab : m.always_blocks) {
      AlwaysBlock copy;
      copy.is_initial = ab.is_initial;
      copy.sensitivity_star = ab.sensitivity_star;
      copy.loc = ab.loc;
      for (const SensitivityItem& item : ab.sensitivity) {
        SensitivityItem si;
        si.edge = item.edge;
        si.signal = rewrite_expr(item.signal, ctx);
        copy.sensitivity.push_back(std::move(si));
      }
      copy.body = ab.body == nullptr ? nullptr : rewrite_stmt(*ab.body, ctx);
      out.always_blocks.push_back(std::move(copy));
    }
    for (const GateInstance& gate : m.gates) {
      GateInstance copy;
      copy.gate_type = gate.gate_type;
      copy.instance_name =
          gate.instance_name.empty() ? "" : prefixed(ctx, gate.instance_name);
      copy.loc = gate.loc;
      for (const ExprPtr& t : gate.terminals) {
        copy.terminals.push_back(rewrite_expr(t, ctx));
      }
      out.gates.push_back(std::move(copy));
    }

    // Instances: connect ports via assigns, then recurse.
    for (const ModuleInstance& inst : m.instances) {
      const Module* child = design_.find_module(inst.module_name);
      if (child == nullptr) {
        throw ParseError("unknown module '" + inst.module_name + "'",
                         inst.loc);
      }
      // Parameter overrides resolved in the parent environment.
      std::vector<std::pair<std::string, long long>> child_overrides;
      for (std::size_t i = 0; i < inst.parameter_overrides.size(); ++i) {
        const PortConnection& conn = inst.parameter_overrides[i];
        if (conn.actual == nullptr) continue;
        const auto value = fold_constant(*conn.actual, env);
        if (!value.has_value()) {
          throw ParseError("non-constant parameter override on instance " +
                               inst.instance_name,
                           inst.loc);
        }
        std::string param_name = conn.port_name;
        if (param_name.empty()) {
          // Positional: i-th non-local parameter of the child.
          std::size_t index = 0;
          for (const ParamDecl& p : child->params) {
            if (p.local) continue;
            if (index == i) {
              param_name = p.name;
              break;
            }
            ++index;
          }
          if (param_name.empty()) {
            throw ParseError("too many positional parameter overrides",
                             inst.loc);
          }
        }
        child_overrides.emplace_back(param_name, *value);
      }

      const std::string child_prefix = prefix + inst.instance_name + ".";

      // Port bindings.
      std::vector<std::pair<std::string, const PortConnection*>> bindings;
      const bool named = !inst.connections.empty() &&
                         !inst.connections.front().port_name.empty();
      if (named) {
        for (const PortConnection& conn : inst.connections) {
          if (conn.port_name.empty()) {
            throw ParseError("cannot mix named and positional connections",
                             inst.loc);
          }
          bindings.emplace_back(conn.port_name, &conn);
        }
      } else {
        if (inst.connections.size() > child->port_order.size()) {
          throw ParseError("too many positional connections on instance " +
                               inst.instance_name,
                           inst.loc);
        }
        for (std::size_t i = 0; i < inst.connections.size(); ++i) {
          bindings.emplace_back(child->port_order[i], &inst.connections[i]);
        }
      }
      for (const auto& [port_name, conn] : bindings) {
        const NetDecl* port = child->find_net(port_name);
        if (port == nullptr || !port->direction.has_value()) {
          throw ParseError("module " + child->name + " has no port '" +
                               port_name + "'",
                           inst.loc);
        }
        if (conn->actual == nullptr) continue;  // explicitly unconnected
        ContinuousAssign ca;
        ca.loc = inst.loc;
        ExprPtr actual = rewrite_expr(conn->actual, ctx);
        ExprPtr formal = make_identifier(child_prefix + port_name, inst.loc);
        switch (*port->direction) {
          case PortDirection::kInput:
            ca.lhs = std::move(formal);
            ca.rhs = std::move(actual);
            break;
          case PortDirection::kOutput:
            ca.lhs = std::move(actual);
            ca.rhs = std::move(formal);
            break;
          case PortDirection::kInout:
            throw ParseError("inout ports are not supported", inst.loc);
        }
        out.assigns.push_back(std::move(ca));
      }

      inline_module(*child, child_prefix, child_overrides, out, depth + 1,
                    /*keep_ports=*/false);
    }

    stack_.pop_back();
  }

  const Design& design_;
  const ElaborateOptions& options_;
  std::vector<std::string> stack_;
};

}  // namespace

Module elaborate(const Design& design, const std::string& top,
                 const ElaborateOptions& options) {
  Elaborator elaborator(design, options);
  return elaborator.run(top);
}

std::string infer_top_module(const Design& design) {
  if (design.modules.empty()) {
    throw ParseError("design contains no modules", {1, 1});
  }
  std::unordered_set<std::string> instantiated;
  for (const Module& m : design.modules) {
    for (const ModuleInstance& inst : m.instances) {
      instantiated.insert(inst.module_name);
    }
  }
  std::vector<std::string> tops;
  for (const Module& m : design.modules) {
    if (instantiated.count(m.name) == 0) tops.push_back(m.name);
  }
  if (tops.size() != 1) {
    throw ParseError(
        util::format("cannot infer top module: %zu candidates", tops.size()),
        {1, 1});
  }
  return tops.front();
}

}  // namespace gnn4ip::verilog
