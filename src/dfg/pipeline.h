// End-to-end DFG generation pipeline (Fig. 2 of the paper):
//   preprocess → parse HDL → data-flow analysis → merge graphs → trim.
//
// Works for both RTL code and gate-level netlists in Verilog format.
// The one configuration: the top module is inferred (the unique
// uninstantiated module) and the trim always runs. build_dfg is every
// stage but the trim, for the trim ablation and the tests that look at
// the graph before it.
#pragma once

#include <string>

#include "graph/digraph.h"

namespace gnn4ip::dfg {

/// The merged DFG of a Verilog source buffer, untrimmed: parse →
/// elaborate the inferred top → data-flow analysis → merge. Throws
/// verilog::ParseError on malformed input.
[[nodiscard]] graph::Digraph build_dfg(const std::string& verilog_source);

/// Extract the final DFG for a Verilog source buffer: build_dfg, then
/// trim. Throws verilog::ParseError on malformed input.
[[nodiscard]] graph::Digraph extract_dfg(const std::string& verilog_source);

/// Summary counters useful for Table-I style reporting.
struct DfgSummary {
  std::size_t num_nodes = 0;
  std::size_t num_edges = 0;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::size_t num_operators = 0;
};

[[nodiscard]] DfgSummary summarize(const graph::Digraph& g);

}  // namespace gnn4ip::dfg
