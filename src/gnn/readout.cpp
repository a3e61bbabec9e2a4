#include "gnn/readout.h"

#include <cmath>
#include <stdexcept>

#include "util/contract.h"

namespace gnn4ip::gnn {

const char* to_string(Readout r) {
  switch (r) {
    case Readout::kSum: return "sum";
    case Readout::kMean: return "mean";
    case Readout::kMax: return "max";
  }
  return "?";
}

Readout readout_from_string(const std::string& name) {
  if (name == "sum") return Readout::kSum;
  if (name == "mean") return Readout::kMean;
  if (name == "max") return Readout::kMax;
  throw std::invalid_argument("unknown readout '" + name +
                              "' (expected sum|mean|max)");
}

tensor::Var apply_readout(tensor::Tape& tape, tensor::Var x, Readout readout) {
  switch (readout) {
    case Readout::kSum: return tape.readout_sum(x);
    case Readout::kMean: return tape.readout_mean(x);
    case Readout::kMax: return tape.readout_max(x);
  }
  return tape.readout_max(x);
}

tensor::Matrix gated_readout(const tensor::Matrix& x,
                             const tensor::Matrix& alpha,
                             const std::vector<std::size_t>& kept,
                             Readout readout) {
  GNN4IP_ENSURE(!kept.empty(), "readout over empty matrix");
  tensor::Matrix out(1, x.cols());
  const auto y = out.row(0);  // +0: where the sum and the mean start
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const float gate = std::tanh(alpha.at(kept[i], 0));
    const auto xr = x.row(kept[i]);
    for (std::size_t c = 0; c < y.size(); ++c) {
      const float v = xr[c] * gate;
      if (readout != Readout::kMax) {
        y[c] += v;
      } else if (i == 0 || v > y[c]) {  // the first row, then strict >
        y[c] = v;
      }
    }
  }
  if (readout == Readout::kMean) {
    out.scale_in_place(1.0F / static_cast<float>(kept.size()));
  }
  return out;
}

}  // namespace gnn4ip::gnn
