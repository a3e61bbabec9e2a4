#include "verilog/elaborate.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <unordered_set>

#include "util/name_map.h"
#include "util/string_util.h"

namespace gnn4ip::verilog {
namespace {

using ParamEnv = std::vector<std::pair<std::string, long long>>;

/// Per-module-inlining context: how identifiers get rewritten.
struct RewriteContext {
  std::string prefix;                 // "" for top, "u1." style otherwise
  const ParamEnv* params = nullptr;

  /// True when nothing is rewritten: the top of a parameterless design.
  [[nodiscard]] bool identity() const {
    return prefix.empty() && params->empty();
  }
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
  if (e == nullptr || ctx.identity()) return e;
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

/// `s` with its expressions rewritten. Like rewrite_expr, it returns `s`
/// itself when nothing under it changes, and copies a node only at the
/// first child that does.
StmtPtr rewrite_stmt(const StmtPtr& s, const RewriteContext& ctx) {
  if (s == nullptr) return s;
  std::shared_ptr<Stmt> copy;
  const auto edit = [&]() -> Stmt& {
    if (copy == nullptr) copy = std::make_shared<Stmt>(*s);
    return *copy;
  };
  if (ExprPtr e = rewrite_expr(s->cond, ctx); e != s->cond) {
    edit().cond = std::move(e);
  }
  if (ExprPtr e = rewrite_expr(s->lhs, ctx); e != s->lhs) {
    edit().lhs = std::move(e);
  }
  if (ExprPtr e = rewrite_expr(s->rhs, ctx); e != s->rhs) {
    edit().rhs = std::move(e);
  }
  for (std::size_t i = 0; i < s->children.size(); ++i) {
    StmtPtr child = rewrite_stmt(s->children[i], ctx);
    if (child != s->children[i]) edit().children[i] = std::move(child);
  }
  for (std::size_t i = 0; i < s->case_items.size(); ++i) {
    const CaseItem& item = s->case_items[i];
    for (std::size_t j = 0; j < item.labels.size(); ++j) {
      ExprPtr label = rewrite_expr(item.labels[j], ctx);
      if (label != item.labels[j]) {
        edit().case_items[i].labels[j] = std::move(label);
      }
    }
    StmtPtr body = rewrite_stmt(item.body, ctx);
    if (body != item.body) edit().case_items[i].body = std::move(body);
  }
  if (copy == nullptr) return s;
  return copy;
}

/// Rewrites in place. The top of a parameterless design is left as it
/// is, without touching a reference count.
void rewrite(ExprPtr& e, const RewriteContext& ctx) {
  if (!ctx.identity()) e = rewrite_expr(e, ctx);
}

void rewrite(StmtPtr& s, const RewriteContext& ctx) {
  if (!ctx.identity()) s = rewrite_stmt(s, ctx);
}

/// A module's implicit nets as they are found: identifiers in expression
/// position that are neither declared nets nor parameters.
struct ImplicitNames {
  util::NameMap<bool> known;            // nets, parameters, names found
  std::vector<std::string_view> names;  // found, each once
};

/// Adds every identifier in expression position that `found` does not
/// know yet. The views point into the expressions' text.
void collect_identifiers(const Expr& e, ImplicitNames& found) {
  if (e.kind == ExprKind::kIdentifier &&
      found.known.try_emplace(e.text, true).second) {
    found.names.push_back(e.text);
  }
  for (const ExprPtr& child : e.operands) {
    if (child != nullptr) collect_identifiers(*child, found);
  }
}

void collect_identifiers(const Stmt& s, ImplicitNames& found) {
  if (s.cond != nullptr) collect_identifiers(*s.cond, found);
  if (s.lhs != nullptr) collect_identifiers(*s.lhs, found);
  if (s.rhs != nullptr) collect_identifiers(*s.rhs, found);
  for (const StmtPtr& child : s.children) {
    if (child != nullptr) collect_identifiers(*child, found);
  }
  for (const CaseItem& item : s.case_items) {
    for (const ExprPtr& label : item.labels) {
      collect_identifiers(*label, found);
    }
    if (item.body != nullptr) collect_identifiers(*item.body, found);
  }
}

/// `m`'s implicit nets, named with `ctx.prefix`, in name order: the
/// identifiers used in its assigns, sensitivity lists, always bodies,
/// gate terminals and instance connections that are neither declared
/// nets nor parameters. The lookups view `m`'s net names, so this runs
/// before any of them moves.
std::vector<NetDecl> implicit_nets(const Module& m, const ParamEnv& env,
                                   const RewriteContext& ctx) {
  ImplicitNames found{util::NameMap<bool>(m.nets.size() + env.size()), {}};
  for (const NetDecl& net : m.nets) found.known.try_emplace(net.name, true);
  for (const auto& param : env) found.known.try_emplace(param.first, true);
  for (const ContinuousAssign& ca : m.assigns) {
    collect_identifiers(*ca.lhs, found);
    collect_identifiers(*ca.rhs, found);
  }
  for (const AlwaysBlock& ab : m.always_blocks) {
    for (const SensitivityItem& item : ab.sensitivity) {
      if (item.signal != nullptr) collect_identifiers(*item.signal, found);
    }
    if (ab.body != nullptr) collect_identifiers(*ab.body, found);
  }
  for (const GateInstance& gate : m.gates) {
    for (const ExprPtr& t : gate.terminals) collect_identifiers(*t, found);
  }
  for (const ModuleInstance& inst : m.instances) {
    for (const PortConnection& conn : inst.connections) {
      if (conn.actual != nullptr) collect_identifiers(*conn.actual, found);
    }
  }
  std::sort(found.names.begin(), found.names.end());
  std::vector<NetDecl> nets(found.names.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    nets[i].name = prefixed(ctx, found.names[i]);
  }
  return nets;
}

/// Appends `items` to `out`, moving each.
template <typename T>
void append(std::vector<T>& out, std::vector<T>& items) {
  if (out.empty()) {
    out = std::move(items);
  } else {
    out.insert(out.end(), std::make_move_iterator(items.begin()),
               std::make_move_iterator(items.end()));
  }
}

std::size_t flat_items(const Module& m) {
  return m.nets.size() + m.assigns.size() + m.always_blocks.size() +
         m.gates.size();
}

class Elaborator {
 public:
  explicit Elaborator(Design& design) : design_(design) {}

  Module run(const std::string& top_name) {
    const auto top = std::find_if(
        design_.modules.begin(), design_.modules.end(),
        [&](const Module& m) { return m.name == top_name; });
    if (top == design_.modules.end()) {
      throw ParseError("top module '" + top_name + "' not found", {1, 1});
    }
    Module m = std::move(*top);
    // The name stays in the design: an instance of the top is found by
    // it, and rejected as recursive.
    top->name = m.name;
    Module out;
    out.name = m.name;
    out.port_order = std::move(m.port_order);
    out.loc = m.loc;
    inline_module(std::move(m), /*prefix=*/"", /*overrides=*/{}, out,
                  /*depth=*/0);
    return out;
  }

 private:
  ParamEnv resolve_params(const Module& m, const ParamEnv& overrides) {
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

  /// Rewrites `m`'s items in place (parameters folded, names prefixed)
  /// and appends them to `out`, then inlines its instances. The top is
  /// moved in and keeps its ports; an instance's module is a copy, and
  /// its ports become plain nets.
  void inline_module(Module m, const std::string& prefix,
                     const ParamEnv& param_overrides, Module& out,
                     int depth) {
    if (depth > kMaxHierarchyDepth) {
      throw ParseError("module hierarchy too deep (cycle?)", m.loc);
    }
    stack_.push_back(m.name);

    const ParamEnv env = resolve_params(m, param_overrides);
    const RewriteContext ctx{prefix, &env};
    std::vector<NetDecl> implicit = implicit_nets(m, env, ctx);

    // Nets, each initializer becoming one of the first assigns.
    for (NetDecl& net : m.nets) {
      if (!prefix.empty()) {
        net.name.insert(0, prefix);
        net.direction.reset();
      }
      if (net.range.has_value()) {
        rewrite(net.range->msb, ctx);
        rewrite(net.range->lsb, ctx);
      }
      if (net.init != nullptr) {
        ContinuousAssign ca;
        ca.loc = net.loc;
        ca.lhs = make_identifier(net.name, net.loc);
        ca.rhs = std::move(net.init);
        rewrite(ca.rhs, ctx);
        out.assigns.push_back(std::move(ca));
      }
    }
    append(out.nets, m.nets);
    append(out.nets, implicit);

    // Behavior.
    for (ContinuousAssign& ca : m.assigns) {
      rewrite(ca.lhs, ctx);
      rewrite(ca.rhs, ctx);
    }
    append(out.assigns, m.assigns);
    for (AlwaysBlock& ab : m.always_blocks) {
      for (SensitivityItem& item : ab.sensitivity) rewrite(item.signal, ctx);
      rewrite(ab.body, ctx);
    }
    append(out.always_blocks, m.always_blocks);
    for (GateInstance& gate : m.gates) {
      if (!prefix.empty() && !gate.instance_name.empty()) {
        gate.instance_name.insert(0, prefix);
      }
      for (ExprPtr& t : gate.terminals) rewrite(t, ctx);
    }
    append(out.gates, m.gates);

    // Instances: connect ports via assigns, then recurse.
    for (const ModuleInstance& inst : m.instances) {
      const Module* child = design_.find_module(inst.module_name);
      if (child == nullptr) {
        throw ParseError("unknown module '" + inst.module_name + "'",
                         inst.loc);
      }
      // Before the child's ports are read: the top's have moved out.
      if (std::find(stack_.begin(), stack_.end(), child->name) !=
          stack_.end()) {
        throw ParseError("recursive instantiation of module " + child->name,
                         child->loc);
      }
      // Parameter overrides resolved in the parent environment.
      ParamEnv child_overrides;
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

      inline_module(*child, child_prefix, child_overrides, out, depth + 1);
      if (flat_items(out) > kMaxFlatItems) {
        throw ParseError(
            util::format("design flattens to more than %zu nets, assigns, "
                         "always blocks and gates",
                         kMaxFlatItems),
            inst.loc);
      }
    }

    stack_.pop_back();
  }

  Design& design_;
  std::vector<std::string> stack_;
};

}  // namespace

Module elaborate(Design design, const std::string& top) {
  Elaborator elaborator(design);
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
