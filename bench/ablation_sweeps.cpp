// Ablation benches for four of hw2vec's design choices:
//   1. readout operator (max vs mean vs sum)      — paper §IV uses max
//   2. pooling ratio (0.25 / 0.5 / 0.75 / 1.0)    — paper §IV uses 0.5
//   3. GCN depth (1 / 2 / 3 layers)               — paper §IV uses 2
//   4. DFG trim pass on/off                        — paper Fig. 2 phase 5
// Each configuration trains on the same reduced RTL corpus and reports
// held-out accuracy, so the table shows the sensitivity of the paper's
// hyperparameter choices.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "data/corpus.h"
#include "dfg/pipeline.h"

namespace {

using namespace gnn4ip;

std::vector<data::CorpusItem> ablation_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family =
      std::max(3, bench::scale().rtl_instances_per_family / 2);
  options.families = {"adder",    "alu",     "counter",  "crc8",
                      "lfsr",     "parity",  "fifo_ctrl", "uart_tx",
                      "multiplier", "gray_counter"};
  return build_rtl_corpus(options);
}

bench::TrainSetup reduced_setup() {
  bench::TrainSetup setup;
  setup.epochs = std::max(8, bench::scale().epochs / 2);
  return setup;
}

/// make_graph_entries without the trim: dfg::build_dfg's graphs.
std::vector<train::GraphEntry> untrimmed_entries(
    const std::vector<data::CorpusItem>& items) {
  std::vector<train::GraphEntry> entries;
  entries.reserve(items.size());
  for (const data::CorpusItem& item : items) {
    entries.push_back(
        {item.name, item.design, gnn::featurize(dfg::build_dfg(item.verilog))});
  }
  return entries;
}

double run_config(std::vector<train::GraphEntry> entries,
                  const gnn::Hw2VecConfig& config) {
  bench::TrainSetup setup = reduced_setup();
  setup.model = config;
  const bench::TrainedModel tm =
      bench::train_model(std::move(entries), setup);
  return tm.eval.confusion.accuracy();
}

}  // namespace

int main() {
  bench::print_header("Ablations: readout / pooling ratio / depth / trim");
  const auto items = ablation_corpus();
  std::printf("corpus: %zu RTL instances over 10 families\n", items.size());
  const std::vector<train::GraphEntry> trimmed = make_graph_entries(items);

  {
    std::printf("\nAblation 1 — readout operator (paper: max)\n");
    std::printf("  %-10s %10s\n", "readout", "accuracy");
    for (const gnn::Readout r :
         {gnn::Readout::kMax, gnn::Readout::kMean, gnn::Readout::kSum}) {
      gnn::Hw2VecConfig config;
      config.readout = r;
      std::printf("  %-10s %9.2f%%\n", to_string(r),
                  100.0 * run_config(trimmed, config));
    }
  }

  {
    std::printf("\nAblation 2 — pooling ratio (paper: 0.5)\n");
    std::printf("  %-10s %10s\n", "ratio", "accuracy");
    for (const float ratio : {0.25F, 0.5F, 0.75F, 1.0F}) {
      gnn::Hw2VecConfig config;
      config.pool_ratio = ratio;
      std::printf("  %-10.2f %9.2f%%\n", static_cast<double>(ratio),
                  100.0 * run_config(trimmed, config));
    }
  }

  {
    std::printf("\nAblation 3 — GCN depth (paper: 2 layers)\n");
    std::printf("  %-10s %10s\n", "layers", "accuracy");
    for (const std::size_t layers : {1u, 2u, 3u}) {
      gnn::Hw2VecConfig config;
      config.num_layers = layers;
      std::printf("  %-10zu %9.2f%%\n", layers,
                  100.0 * run_config(trimmed, config));
    }
  }

  {
    std::printf("\nAblation 4 — DFG trim pass (paper: on, Fig. 2 phase 5)\n");
    std::printf("  %-10s %10s\n", "trim", "accuracy");
    std::printf("  %-10s %9.2f%%\n", "on",
                100.0 * run_config(trimmed, gnn::Hw2VecConfig{}));
    std::printf("  %-10s %9.2f%%\n", "off",
                100.0 * run_config(untrimmed_entries(items),
                                   gnn::Hw2VecConfig{}));
  }

  std::printf(
      "\nShape check: the paper's settings (max readout, ratio 0.5, two\n"
      "layers, trim on) should be at or near the best cell of each sweep.\n");
  return 0;
}
