// Graph readout (Eq. 3): aggregate pooled node embeddings into the
// graph-level embedding h_G by sum-, mean-, or max-pooling.
#pragma once

#include <string>
#include <vector>

#include "tensor/tape.h"

namespace gnn4ip::gnn {

enum class Readout { kSum, kMean, kMax };

[[nodiscard]] const char* to_string(Readout r);
/// Parse "sum" / "mean" / "max"; throws std::invalid_argument otherwise.
[[nodiscard]] Readout readout_from_string(const std::string& name);

/// Apply the readout over node rows -> 1×C graph embedding.
[[nodiscard]] tensor::Var apply_readout(tensor::Tape& tape, tensor::Var x,
                                        Readout readout);

/// SAGPool's gate and the readout off the tape, in one pass: the rows
/// `kept` (ascending, non-empty) of `x`, each scaled by tanh(α) of its
/// node, read out into a 1×C embedding. Bit-equal to select_rows →
/// scale_rows → apply_readout on a tape.
[[nodiscard]] tensor::Matrix gated_readout(const tensor::Matrix& x,
                                           const tensor::Matrix& alpha,
                                           const std::vector<std::size_t>& kept,
                                           Readout readout);

}  // namespace gnn4ip::gnn
