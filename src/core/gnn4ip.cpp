#include "core/gnn4ip.h"

#include <algorithm>
#include <cmath>

#include "gnn/model_io.h"

namespace gnn4ip {

train::GraphEntry make_graph_entry(const data::CorpusItem& item,
                                   const dfg::PipelineOptions& pipeline) {
  train::GraphEntry entry;
  entry.name = item.name;
  entry.design = item.design;
  const graph::Digraph g = dfg::extract_dfg(item.verilog, pipeline);
  entry.tensors = gnn::featurize(g);
  return entry;
}

std::vector<train::GraphEntry> make_graph_entries(
    const std::vector<data::CorpusItem>& items,
    const dfg::PipelineOptions& pipeline) {
  std::vector<train::GraphEntry> entries;
  entries.reserve(items.size());
  for (const data::CorpusItem& item : items) {
    entries.push_back(make_graph_entry(item, pipeline));
  }
  return entries;
}

PiracyDetector::PiracyDetector(const DetectorConfig& config)
    : config_(config), model_(config.model) {}

train::EvalResult PiracyDetector::train_on(
    std::vector<train::GraphEntry> entries,
    const train::TrainConfig& train_config) {
  const train::PairDataset dataset =
      train::PairDataset::all_pairs(std::move(entries),
                                    config_.pair_options);
  train::Trainer trainer(model_, dataset, train_config);
  trainer.fit();
  train::EvalResult result = trainer.evaluate();
  config_.delta = result.delta;
  return result;
}

tensor::Matrix PiracyDetector::embed(const std::string& verilog_source) {
  const graph::Digraph g = dfg::extract_dfg(verilog_source, config_.pipeline);
  const gnn::GraphTensors tensors = gnn::featurize(g);
  return model_.embed_inference(tensors);
}

tensor::Matrix PiracyDetector::embed(const train::GraphEntry& entry) {
  return model_.embed_inference(entry.tensors);
}

float PiracyDetector::similarity(const std::string& verilog_a,
                                 const std::string& verilog_b) {
  const tensor::Matrix ha = embed(verilog_a);
  const tensor::Matrix hb = embed(verilog_b);
  const float ab = tensor::dot(ha, hb);
  const float denom =
      std::max(ha.frobenius_norm() * hb.frobenius_norm(), 1e-8F);
  // Clamp float rounding so Ŷ stays within the documented [-1, 1].
  return std::clamp(ab / denom, -1.0F, 1.0F);
}

Verdict PiracyDetector::check(const std::string& verilog_a,
                              const std::string& verilog_b) {
  Verdict v;
  v.similarity = similarity(verilog_a, verilog_b);
  v.is_piracy = v.similarity > config_.delta;
  return v;
}

void PiracyDetector::save(const std::string& path) {
  gnn::save_model_file(path, model_);
}

void PiracyDetector::load(const std::string& path) {
  model_ = gnn::load_model_file(path);
  config_.model = model_.config();
}

}  // namespace gnn4ip
