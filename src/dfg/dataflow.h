// Phase 3 of the Fig. 2 pipeline: per-signal data-flow analysis.
//
// The analyzer walks a *flattened* module (see verilog::elaborate) and
// produces one driver expression tree per driven signal.  Procedural
// blocks are executed symbolically: blocking assignments update the
// running symbolic environment, non-blocking assignments are scheduled
// against the pre-block values, and if/case statements merge branch
// values through ternary (mux) expressions — giving the "signal DFGs"
// that the merge phase later unions into the final graph.
#pragma once

#include <string>
#include <vector>

#include "verilog/ast.h"

namespace gnn4ip::dfg {

/// One signal's data-flow tree. `tree` is an AST expression whose
/// identifiers refer to other signals; control flow has been lowered to
/// ternaries, and merge turns every ternary, from an `if` or a `case`,
/// into a kMux node. Trees share subtrees with each other and with the
/// module; merge expands a shared subtree once per use.
struct SignalDriver {
  std::string signal;
  verilog::ExprPtr tree;
  bool is_register = false;  // assigned under posedge/negedge sensitivity
};

/// Analyze a flattened module. Throws verilog::ParseError on constructs
/// the analyzer cannot handle (e.g. assignments to non-lvalues).
[[nodiscard]] std::vector<SignalDriver> analyze_dataflow(
    const verilog::Module& flat);

}  // namespace gnn4ip::dfg
