// RTL compilation front half of the audit pipeline, with Result-style
// diagnostics: preprocess → parse → DFG extraction → featurization,
// packaged so one malformed design yields a per-design Diagnostic
// instead of an exception that kills the whole batch.
//
// These are the stable, composable stage signatures the AuditService is
// built on; anything that needs "Verilog text in, GNN tensors out"
// (examples, the CLI, a future daemon) goes through compile_rtl /
// Pipeline rather than hand-wiring dfg::extract_dfg + gnn::featurize.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

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
[[nodiscard]] CompileResult compile_rtl(
    const std::string& verilog_source,
    const dfg::PipelineOptions& pipeline = {});

/// Reusable compile stage with fixed options — the form AuditService
/// holds, and the unit a batch fan-out parallelizes over.
class Pipeline {
 public:
  explicit Pipeline(const dfg::PipelineOptions& pipeline = {})
      : pipeline_(pipeline) {}

  [[nodiscard]] CompileResult compile(const std::string& verilog_source) const {
    return compile_rtl(verilog_source, pipeline_);
  }

  /// Compile a batch in parallel (0 threads = shared pool). Results are
  /// positionally aligned with `sources`; designs are independent, so
  /// the output is bit-identical for any worker count.
  [[nodiscard]] std::vector<CompileResult> compile_batch(
      std::span<const std::string> sources, std::size_t num_threads = 0) const;

  [[nodiscard]] const dfg::PipelineOptions& pipeline_options() const {
    return pipeline_;
  }

 private:
  dfg::PipelineOptions pipeline_;
};

}  // namespace gnn4ip::audit
