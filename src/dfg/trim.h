// Phase 5 of the Fig. 2 pipeline: trim redundant nodes and disconnected
// subgraphs from the merged DFG.
#pragma once

#include "graph/digraph.h"

namespace gnn4ip::dfg {

/// Trim `g` in place, in three steps:
///   1. constant nodes that feed nothing (a driver tree rewritten away);
///   2. isolated nodes (degree zero) — typically declared-but-unused
///      nets;
///   3. weakly-connected components that contain no output node. When a
///      graph has no output node at all, the largest component is kept.
void trim(graph::Digraph& g);

}  // namespace gnn4ip::dfg
