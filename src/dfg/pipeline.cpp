#include "dfg/pipeline.h"

#include "dfg/dataflow.h"
#include "dfg/merge.h"
#include "dfg/node_kind.h"
#include "dfg/trim.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"

namespace gnn4ip::dfg {

graph::Digraph build_dfg(const std::string& verilog_source) {
  const verilog::Design design = verilog::parse(verilog_source);
  const verilog::Module flat =
      verilog::elaborate(design, verilog::infer_top_module(design));
  const std::vector<SignalDriver> drivers = analyze_dataflow(flat);
  return merge_drivers(flat, drivers);
}

graph::Digraph extract_dfg(const std::string& verilog_source) {
  graph::Digraph g = build_dfg(verilog_source);
  trim(g);
  return g;
}

DfgSummary summarize(const graph::Digraph& g) {
  DfgSummary s;
  s.num_nodes = g.num_nodes();
  s.num_edges = g.num_edges();
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto kind =
        static_cast<NodeKind>(g.node(static_cast<graph::NodeId>(v)).kind);
    if (kind == NodeKind::kInput) ++s.num_inputs;
    if (kind == NodeKind::kOutput) ++s.num_outputs;
    if (is_operator_kind(kind)) ++s.num_operators;
  }
  return s;
}

}  // namespace gnn4ip::dfg
