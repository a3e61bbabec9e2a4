// Phase 5 of the Fig. 2 pipeline: trim redundant nodes and disconnected
// subgraphs from the merged DFG.
#pragma once

#include "graph/digraph.h"

namespace gnn4ip::dfg {

/// Trim `g` in place, in three steps:
///   1. constant nodes with no predecessor (a driver tree rewritten
///      away);
///   2. nodes with no edge to or from a node step 1 kept (a self-loop
///      counts) — typically declared-but-unused nets;
///   3. weakly-connected components, labelled in order of their lowest
///      surviving id, that contain no output node. When no component
///      holds an output, the first largest is kept.
/// Steps 1 and 2 are one mask and one compaction; step 3 compacts again
/// only when a component goes. Survivors keep their relative order, and
/// the graph is left as the same steps run one after another leave it.
void trim(graph::Digraph& g);

}  // namespace gnn4ip::dfg
