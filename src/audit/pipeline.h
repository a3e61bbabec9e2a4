// RTL compilation front half of the audit pipeline, with Result-style
// diagnostics: preprocess → parse → DFG extraction → featurization,
// packaged so one malformed design yields a per-design Diagnostic
// instead of an exception that kills the whole batch.
//
// compile_rtl is the stage the AuditService is built on; anything that
// needs "Verilog text in, GNN tensors out" (examples, the CLI) goes
// through it rather than hand-wiring dfg::extract_dfg + gnn::featurize.
#pragma once

#include <string>

#include "dfg/pipeline.h"
#include "gnn/featurize.h"
#include "graph/digraph.h"
#include "verilog/diagnostics.h"

namespace gnn4ip::audit {

/// One user-facing problem with a submitted design. `location` is 0:0
/// when the failure has no source position (e.g. elaboration errors).
struct Diagnostic {
  std::string message;
  verilog::SourceLocation location;

  [[nodiscard]] bool has_location() const { return location.line > 0; }
  [[nodiscard]] std::string to_string() const {
    return has_location() ? location.to_string() + ": " + message : message;
  }
};

/// Everything the back half of the pipeline needs from one design: the
/// extracted DFG (kept for inspection/DOT export) and its GNN tensors.
struct CompiledDesign {
  graph::Digraph dfg;
  gnn::GraphTensors tensors;
};

/// Result of compiling one design: either a CompiledDesign or a
/// Diagnostic, never an exception for malformed input.
struct CompileResult {
  bool ok = false;
  CompiledDesign design;  // valid when ok
  Diagnostic error;       // valid when !ok
};

/// Compile one Verilog source (RTL or gate-level netlist) into GNN
/// tensors. Malformed input is reported through the returned Diagnostic;
/// only internal library bugs (util::ContractViolation) still throw.
[[nodiscard]] CompileResult compile_rtl(const std::string& verilog_source);

}  // namespace gnn4ip::audit
