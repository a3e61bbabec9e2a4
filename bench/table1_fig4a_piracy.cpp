// Reproduces Table I (IP piracy detection accuracy and timing) and
// Fig. 4(a) (confusion matrices) for both the RTL and the netlist
// dataset.
//
// Paper reference values:
//   RTL:     dataset 75855 pairs / 390 graphs, accuracy 97.21%,
//            0.577 ms train and 0.566 ms test per sample
//   Netlist: dataset 9870 pairs / 143 graphs, accuracy 94.61%,
//            ~6 ms per sample
//   Fig 4a RTL:     TP 3464  FP 10  FN 190  TN 11352
//   Fig 4a Netlist: TP 328   FP 0   FN 108  TN 1567
// Shape expectations for this reproduction: accuracy well above 90% on
// both corpora, per-sample times in the millisecond range, and netlist
// timing slower than RTL because netlist DFGs are larger. The accuracy
// and F1 floors are enforced: below either, the bench exits 1 (ctest
// runs it at fast scale under the `quality` label).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"
#include "data/corpus.h"

namespace {

using namespace gnn4ip;

/// Per-row floors, a margin under what the fast scale prints (RTL
/// 93.79% / F1 0.845, netlist 93.53% / F1 0.862), so a refactor, a cap
/// or perf work cannot cost detection silently.
constexpr double kMinAccuracy = 0.90;
constexpr double kMinF1 = 0.80;

/// Print the dataset's Table I row and Fig. 4(a) matrix; false when its
/// accuracy or F1 is under the floor.
bool run_dataset(const char* label, std::vector<train::GraphEntry> entries,
                 const char* paper_row) {
  const double avg_nodes = bench::mean_nodes(entries);
  bench::TrainSetup setup;
  setup.epochs = bench::scale().epochs;
  const bench::TrainedModel tm =
      bench::train_model(std::move(entries), setup);

  const double train_ms_per_sample =
      tm.train_pair_samples == 0
          ? 0.0
          : 1e3 * tm.train_seconds /
                static_cast<double>(tm.train_pair_samples);
  const double test_ms_per_sample = 1e3 * tm.eval.seconds_per_sample;

  std::printf("\nTable I row — %s dataset\n", label);
  std::printf("  %-22s %10s %10s %12s %16s %15s\n", "", "pairs", "#graphs",
              "accuracy", "train ms/sample", "test ms/sample");
  std::printf("  %-22s %10zu %10zu %11.2f%% %16.3f %15.3f\n", label,
              tm.dataset->pairs().size(), tm.dataset->graphs().size(),
              100.0 * tm.eval.confusion.accuracy(), train_ms_per_sample,
              test_ms_per_sample);
  std::printf("  paper:                %s\n", paper_row);
  std::printf("  mean DFG nodes: %.0f   tuned delta: %+.3f\n", avg_nodes,
              static_cast<double>(tm.eval.delta));

  // Batched corpus scoring: embed once per graph, then score every pair
  // from the cached embeddings (the naive path re-embeds both members
  // per pair — that is what seconds_per_sample above measures, matching
  // the paper's timing protocol).
  const auto b0 = std::chrono::steady_clock::now();
  const std::vector<tensor::Matrix> embeddings = tm.trainer->embed_all();
  const std::size_t n_graphs = embeddings.size();
  tensor::Matrix all_scores(n_graphs, n_graphs);
  for (std::size_t a = 0; a < n_graphs; ++a) {
    for (std::size_t b = a + 1; b < n_graphs; ++b) {
      const float sim = bench::cosine(embeddings[a], embeddings[b]);
      all_scores.at(a, b) = sim;
      all_scores.at(b, a) = sim;
    }
  }
  const auto b1 = std::chrono::steady_clock::now();
  const std::size_t all_pairs = n_graphs * (n_graphs - 1) / 2;
  const double batched_ms_per_sample =
      all_pairs == 0 ? 0.0
                     : 1e3 *
                           std::chrono::duration<double>(b1 - b0).count() /
                           static_cast<double>(all_pairs);

  // Consistency: the batched scores must reproduce the evaluation's
  // per-pair scores (both use inference-mode embeddings).
  float max_diff = 0.0F;
  const auto& test_indices = tm.trainer->split().test;
  for (std::size_t k = 0; k < test_indices.size(); ++k) {
    const train::PairSample& p = tm.dataset->pairs()[test_indices[k]];
    max_diff = std::max(
        max_diff, std::fabs(all_scores.at(p.a, p.b) - tm.eval.scores[k]));
  }
  std::printf(
      "  batched scoring: %zu graphs -> %zu pairs in %.1f ms "
      "(%.4f ms/sample, %.1fx vs per-pair; max score diff %.2e)\n",
      n_graphs, all_pairs,
      1e3 * std::chrono::duration<double>(b1 - b0).count(),
      batched_ms_per_sample,
      batched_ms_per_sample > 0.0 ? test_ms_per_sample / batched_ms_per_sample
                                  : 0.0,
      static_cast<double>(max_diff));

  const train::ConfusionMatrix& cm = tm.eval.confusion;
  std::printf("\nFig. 4(a) — %s confusion matrix (held-out pairs)\n", label);
  std::printf("                     predicted+   predicted-\n");
  std::printf("  actual piracy      TP: %-8zu FN: %-8zu\n", cm.tp, cm.fn);
  std::printf("  actual no-piracy   FP: %-8zu TN: %-8zu\n", cm.fp, cm.tn);
  std::printf("  precision %.4f  recall %.4f  f1 %.4f  FNR %.2e\n",
              cm.precision(), cm.recall(), cm.f1(),
              cm.false_negative_rate());
  if (cm.accuracy() >= kMinAccuracy && cm.f1() >= kMinF1) return true;
  std::printf("  FAIL: %s is under the floor (accuracy %.2f%%, f1 %.2f)\n",
              label, 100.0 * kMinAccuracy, kMinF1);
  return false;
}

}  // namespace

int main() {
  bench::print_header(
      "Table I + Fig. 4(a): IP piracy detection accuracy & timing");

  data::RtlCorpusOptions rtl_options;
  rtl_options.instances_per_family =
      bench::scale().rtl_instances_per_family;
  const auto rtl_items = data::build_rtl_corpus(rtl_options);
  const bool rtl_ok =
      run_dataset("RTL", make_graph_entries(rtl_items),
                  "75855 pairs, 390 graphs, 97.21%, 0.577 ms, 0.566 ms");

  data::NetlistCorpusOptions nl_options;
  nl_options.instances_per_family =
      bench::scale().netlist_instances_per_family;
  const auto nl_items = data::build_netlist_corpus(nl_options);
  const bool netlist_ok =
      run_dataset("Netlist", make_graph_entries(nl_items),
                  "9870 pairs, 143 graphs, 94.61%, 5.999 ms, 5.918 ms");

  std::printf(
      "\nShape check: both accuracies should exceed 90%%, timings are in\n"
      "milliseconds, and netlist per-sample time exceeds RTL because the\n"
      "netlist DFGs are larger (paper §IV-B).\n");
  return rtl_ok && netlist_ok ? 0 : 1;
}
