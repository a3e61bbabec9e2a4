#include "common.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <span>

#include "core/cosine_kernels.h"

namespace gnn4ip::bench {

const Scale& scale() {
  static const Scale kFast{"fast", 4, 4, 30, 12, 3, 2};
  static const Scale kDefault{"default", 12, 12, 120, 40, 8, 4};
  static const Scale kPaper{"paper", 18, 14, 160, 125, 20, 4};
  const char* env = std::getenv("GNN4IP_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "fast") == 0) return kFast;
  if (env != nullptr && std::strcmp(env, "paper") == 0) return kPaper;
  return kDefault;
}

void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("  %s\n", title.c_str());
  std::printf("  [scale: %s — set GNN4IP_BENCH_SCALE=fast|default|paper]\n",
              scale().name);
  std::printf("================================================================\n");
}

tensor::Matrix TrainedModel::embed(std::size_t graph_index) const {
  return model->embed_inference(
      dataset->graphs().at(graph_index).tensors);
}

tensor::Matrix TrainedModel::embed(const train::GraphEntry& entry) const {
  return model->embed_inference(entry.tensors);
}

float cosine(const tensor::Matrix& a, const tensor::Matrix& b) {
  const std::span<const float> x = a.data();
  const std::span<const float> y = b.data();
  return core::cosine_cell(x.data(), y.data(), x.size(),
                           core::row_norm(x) * core::row_norm(y));
}

TrainedModel train_model(std::vector<train::GraphEntry> entries,
                         const TrainSetup& setup) {
  TrainedModel tm;
  tm.model = std::make_unique<gnn::Hw2Vec>(setup.model);
  tm.dataset = std::make_unique<train::PairDataset>(
      train::PairDataset::all_pairs(std::move(entries),
                                    train::kPaperNegativeRatio));
  train::TrainConfig tc;
  tc.epochs = setup.epochs;
  tc.batch_graphs = setup.batch_graphs;
  tc.learning_rate = setup.learning_rate;
  tc.seed = setup.seed;
  tm.trainer =
      std::make_unique<train::Trainer>(*tm.model, *tm.dataset, tc);
  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < tc.epochs; ++e) {
    const train::EpochStats stats = tm.trainer->train_epoch();
    tm.train_pair_samples += stats.pairs_seen;
  }
  const auto t1 = std::chrono::steady_clock::now();
  tm.train_seconds = std::chrono::duration<double>(t1 - t0).count();
  tm.eval = tm.trainer->evaluate();
  return tm;
}

double mean_nodes(const std::vector<train::GraphEntry>& entries) {
  if (entries.empty()) return 0.0;
  double total = 0.0;
  for (const auto& e : entries) {
    total += static_cast<double>(e.tensors.num_nodes);
  }
  return total / static_cast<double>(entries.size());
}

}  // namespace gnn4ip::bench
