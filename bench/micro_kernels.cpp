// google-benchmark microbenchmarks for the hot kernels behind Table I's
// per-sample timing: Verilog frontend, DFG pipeline, featurization,
// GCN/pooling forward, whole-graph embedding, corpus embedding and
// screening, and the classical baseline for contrast.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "baseline/graph_similarity.h"
#include "common.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "data/corpus.h"
#include "data/iscas.h"
#include "data/rtl_designs.h"
#include "dfg/dataflow.h"
#include "dfg/merge.h"
#include "dfg/trim.h"
#include "dist/dist_corpus.h"
#include "dist/shard_server.h"
#include "train/trainer.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"
#include "verilog/preprocess.h"

namespace {

using namespace gnn4ip;

const std::string& small_rtl() {
  static const std::string src = data::gen_adder({0, 1});
  return src;
}

const std::string& medium_rtl() {
  static const std::string src = data::gen_mips_pipeline({0, 1});
  return src;
}

const std::vector<data::IscasBenchmark>& iscas() {
  static const std::vector<data::IscasBenchmark> benches =
      data::iscas_benchmarks();
  return benches;
}

void BM_ParseSmallRtl(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(verilog::parse(small_rtl()));
  }
}
BENCHMARK(BM_ParseSmallRtl);

void BM_ParseMediumRtl(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(verilog::parse(medium_rtl()));
  }
}
BENCHMARK(BM_ParseMediumRtl);

void BM_ExtractDfgSmall(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::extract_dfg(small_rtl()));
  }
}
BENCHMARK(BM_ExtractDfgSmall);

void BM_ExtractDfgMedium(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::extract_dfg(medium_rtl()));
  }
}
BENCHMARK(BM_ExtractDfgMedium);

// The six ISCAS stand-ins in Table III order. The `nets` counter is each
// one's declaration count, so cost superlinear in declared nets shows
// across the series.
void BM_ExtractDfgNetlist(benchmark::State& state) {
  const data::IscasBenchmark& bench =
      iscas()[static_cast<std::size_t>(state.range(0))];
  const std::string src = bench.netlist.to_verilog();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::extract_dfg(src));
  }
  state.SetLabel(bench.name);
  state.counters["nets"] =
      static_cast<double>(verilog::parse(src).modules.front().nets.size());
}
BENCHMARK(BM_ExtractDfgNetlist)->DenseRange(0, 5);

// The six ISCAS stand-ins' preprocessed sources; `tokens` counts each
// one's token stream.
void BM_Lex(benchmark::State& state) {
  const data::IscasBenchmark& bench =
      iscas()[static_cast<std::size_t>(state.range(0))];
  const std::string src = verilog::preprocess(bench.netlist.to_verilog());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verilog::lex(src));
  }
  state.SetLabel(bench.name);
  state.counters["tokens"] = static_cast<double>(verilog::lex(src).size());
}
BENCHMARK(BM_Lex)->DenseRange(0, 5);

// `t = a;` and then n x `t = t ^ b;` in one `always @(*)` block. The
// `stmts` counter is n, so time per statement shows whether symbolic
// dataflow and merge stay linear in the length of the chain.
void BM_ExtractDfgChain(benchmark::State& state) {
  std::string src =
      "module chain (input a, input b, output y);\n"
      "  reg t;\n"
      "  always @(*) begin\n"
      "    t = a;\n";
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    src += "    t = t ^ b;\n";
  }
  src += "  end\n  assign y = t;\nendmodule\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::extract_dfg(src));
  }
  state.counters["stmts"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ExtractDfgChain)
    ->Arg(2500)
    ->Arg(10000)
    ->Arg(40000)
    ->Unit(benchmark::kMillisecond);

// The six ISCAS stand-ins' trimmed DFGs; `nnz` counts the entries of
// each one's Â.
void BM_Featurize(benchmark::State& state) {
  const data::IscasBenchmark& bench =
      iscas()[static_cast<std::size_t>(state.range(0))];
  const graph::Digraph g = dfg::extract_dfg(bench.netlist.to_verilog());
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnn::featurize(g));
  }
  state.SetLabel(bench.name);
  state.counters["nnz"] = static_cast<double>(gnn::featurize(g).adj->nnz());
}
BENCHMARK(BM_Featurize)->DenseRange(0, 5);

// Elaboration of the six ISCAS stand-ins, each freshly parsed outside
// the timer: the timed part is elaborate plus destroying the flat module
// and what is left of the parsed design. `nets` counts each flat module.
void BM_Elaborate(benchmark::State& state) {
  const data::IscasBenchmark& bench =
      iscas()[static_cast<std::size_t>(state.range(0))];
  const std::string src = bench.netlist.to_verilog();
  const std::string top = verilog::infer_top_module(verilog::parse(src));
  std::size_t nets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    verilog::Design design = verilog::parse(src);
    state.ResumeTiming();
    const verilog::Module flat = verilog::elaborate(std::move(design), top);
    nets = flat.nets.size();
    design = {};
    benchmark::DoNotOptimize(nets);
  }
  state.SetLabel(bench.name);
  state.counters["nets"] = static_cast<double>(nets);
}
BENCHMARK(BM_Elaborate)->DenseRange(0, 5);

// Merge plus trim (phases 4 and 5 of Fig. 2) of the six ISCAS
// stand-ins; parse, elaborate and dataflow run once, outside the loop.
// `nodes` counts each trimmed DFG.
void BM_MergeTrim(benchmark::State& state) {
  const data::IscasBenchmark& bench =
      iscas()[static_cast<std::size_t>(state.range(0))];
  const verilog::Design design = verilog::parse(bench.netlist.to_verilog());
  const verilog::Module flat =
      verilog::elaborate(design, verilog::infer_top_module(design));
  const std::vector<dfg::SignalDriver> drivers = dfg::analyze_dataflow(flat);
  std::size_t nodes = 0;
  for (auto _ : state) {
    graph::Digraph g = dfg::merge_drivers(flat, drivers);
    dfg::trim(g);
    nodes = g.num_nodes();
    benchmark::DoNotOptimize(nodes);
  }
  state.SetLabel(bench.name);
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_MergeTrim)->DenseRange(0, 5);

void BM_GcnForward(benchmark::State& state) {
  const gnn::GraphTensors t = gnn::featurize(dfg::extract_dfg(medium_rtl()));
  util::Rng rng(1);
  gnn::GcnLayer layer(t.x.cols(), 16, rng);
  for (auto _ : state) {
    tensor::Tape tape;
    tensor::Var x = tape.constant(t.x);
    benchmark::DoNotOptimize(layer.forward(tape, t.adj, x));
  }
}
BENCHMARK(BM_GcnForward);

// The inference embed (two GCN layers, SAGPool top-k, max readout) of
// the six ISCAS stand-ins' featurized DFGs; `nodes` counts each graph.
void BM_Hw2VecEmbed(benchmark::State& state) {
  const data::IscasBenchmark& bench =
      iscas()[static_cast<std::size_t>(state.range(0))];
  const gnn::GraphTensors t =
      gnn::featurize(dfg::extract_dfg(bench.netlist.to_verilog()));
  const gnn::Hw2Vec model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.embed_inference(t));
  }
  state.SetLabel(bench.name);
  state.counters["nodes"] = static_cast<double>(t.num_nodes);
}
BENCHMARK(BM_Hw2VecEmbed)->DenseRange(0, 5);

void BM_Hw2VecTrainStep(benchmark::State& state) {
  const gnn::GraphTensors t = gnn::featurize(dfg::extract_dfg(medium_rtl()));
  gnn::Hw2Vec model;
  util::Rng rng(2);
  for (auto _ : state) {
    tensor::Tape tape;
    tensor::Var h = model.embed(tape, t, rng, /*training=*/true);
    tensor::Var target =
        tape.constant(tensor::Matrix::ones(1, h.value().cols()));
    tensor::Var sim = tape.cosine_similarity(h, target);
    tensor::Var loss = tape.cosine_embedding_loss(sim, 1, 0.5F);
    tape.backward(loss);
    benchmark::DoNotOptimize(loss.value().at(0, 0));
    for (tensor::Parameter* p : model.parameters()) p->zero_grad();
  }
}
BENCHMARK(BM_Hw2VecTrainStep);

void BM_SpmmMedium(benchmark::State& state) {
  const gnn::GraphTensors t = gnn::featurize(dfg::extract_dfg(medium_rtl()));
  tensor::Matrix x(t.num_nodes, 16, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.adj->multiply(x));
  }
}
BENCHMARK(BM_SpmmMedium);

// --- Corpus-scale embedding and screening. ---
//
// BM_EmbedCorpus embeds a 64-design corpus once per design (the
// audit-path bottleneck: a 16-dim cosine is 16 multiply-adds, an embed
// is a whole GNN forward) across worker counts; embeddings are
// bit-identical for every Arg.

constexpr std::size_t kScoringCorpusSize = 64;

const std::vector<train::GraphEntry>& scoring_corpus() {
  static const std::vector<train::GraphEntry> entries = [] {
    data::RtlCorpusOptions options;
    options.instances_per_family = 2;
    std::vector<data::CorpusItem> items = data::build_rtl_corpus(options);
    items.resize(std::min(items.size(), kScoringCorpusSize));
    return make_graph_entries(items);
  }();
  return entries;
}

// One data-parallel training epoch (16 graphs per step, every pair among
// them) over the 64-design corpus across worker counts. Gradients reduce
// in fixed graph order, so every Arg trains the exact same trajectory —
// the axis shows pure thread scaling of the per-graph forward/backward
// fan-out.
void BM_TrainEpoch(benchmark::State& state) {
  const train::PairDataset dataset =
      train::PairDataset::all_pairs(scoring_corpus());
  gnn::Hw2Vec model;
  train::TrainConfig tc;
  tc.batch_graphs = 16;
  tc.max_steps_per_epoch = 4;
  tc.num_threads = static_cast<std::size_t>(state.range(0));
  train::Trainer trainer(model, dataset, tc);
  for (auto _ : state) {
    const train::EpochStats stats = trainer.train_epoch();
    benchmark::DoNotOptimize(stats.mean_loss);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["graphs"] = static_cast<double>(dataset.graphs().size());
}
BENCHMARK(BM_TrainEpoch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EmbedCorpus(benchmark::State& state) {
  const train::PairDataset dataset =
      train::PairDataset::all_pairs(scoring_corpus());
  gnn::Hw2Vec model;
  train::TrainConfig tc;
  tc.num_threads = static_cast<std::size_t>(state.range(0));
  train::Trainer trainer(model, dataset, tc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.embed_all());
  }
  state.counters["designs"] = static_cast<double>(dataset.graphs().size());
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EmbedCorpus)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The full audit-service loop per batch across worker counts: 8 designs
// are submitted (pre-featurized GraphEntry path), then one screen()
// embeds them in parallel, screens them against the 56 pinned residents
// via screen_new_rows, and evicts them again (max_resident == library
// size), so every iteration sees the same steady-state corpus. Verdicts
// are bit-identical for every Arg.
void BM_AuditSubmit(benchmark::State& state) {
  const std::vector<train::GraphEntry>& entries = scoring_corpus();
  const std::size_t library = entries.size() - 8;
  gnn::Hw2Vec model;
  audit::AuditOptions options;
  options.scorer.num_threads = static_cast<std::size_t>(state.range(0));
  options.max_resident = library;
  audit::AuditService service(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    (void)service.add_library(entries[i]);
  }
  for (auto _ : state) {
    for (std::size_t i = library; i < entries.size(); ++i) {
      benchmark::DoNotOptimize(service.submit(entries[i]));
    }
    const std::vector<audit::ScreenReport> reports = service.screen();
    benchmark::DoNotOptimize(reports.size());
  }
  state.counters["resident"] = static_cast<double>(library);
  state.counters["batch"] = static_cast<double>(entries.size() - library);
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AuditSubmit)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The audit loop across shard counts: identical work to BM_AuditSubmit
// (8 submissions screened against 56 pinned residents, then evicted),
// but the resident corpus is split over state.range(0) hash-placed
// shards and screen_new_rows fans the shards out over the pool. Verdicts
// are bit-identical for every Arg — the axis shows what sharding costs
// (or buys, on multi-core hosts) with results pinned.
void BM_ShardedScreen(benchmark::State& state) {
  const std::vector<train::GraphEntry>& entries = scoring_corpus();
  const std::size_t library = entries.size() - 8;
  gnn::Hw2Vec model;
  audit::AuditOptions options;
  options.num_shards = static_cast<std::size_t>(state.range(0));
  options.max_resident = library;
  audit::AuditService service(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    (void)service.add_library(entries[i]);
  }
  for (auto _ : state) {
    for (std::size_t i = library; i < entries.size(); ++i) {
      benchmark::DoNotOptimize(service.submit(entries[i]));
    }
    const std::vector<audit::ScreenReport> reports = service.screen();
    benchmark::DoNotOptimize(reports.size());
  }
  state.counters["resident"] = static_cast<double>(library);
  state.counters["shards"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ShardedScreen)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The async front end per batch: 8 submissions handed to the
// AsyncAuditor daemon, then all futures awaited. Measures the full
// producer→queue→daemon→screen→future round trip (the daemon batches
// whatever accumulates, so per-iteration batch shapes adapt to timing;
// the corpus state each design scores against is pinned by
// max_resident == library, keeping the work per iteration constant).
void BM_AsyncSubmitDrain(benchmark::State& state) {
  const std::vector<train::GraphEntry>& entries = scoring_corpus();
  const std::size_t library = entries.size() - 8;
  gnn::Hw2Vec model;
  audit::AuditOptions options;
  options.num_shards = 2;
  options.max_resident = library;
  audit::AsyncAuditor auditor(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    (void)auditor.service().add_library(entries[i]);
  }
  for (auto _ : state) {
    std::vector<std::future<audit::ScreenReport>> futures;
    futures.reserve(entries.size() - library);
    for (std::size_t i = library; i < entries.size(); ++i) {
      futures.push_back(auditor.submit(entries[i]));
    }
    std::size_t verdicts = 0;
    for (std::future<audit::ScreenReport>& f : futures) {
      verdicts += f.get().verdicts.size();
    }
    benchmark::DoNotOptimize(verdicts);
  }
  state.counters["resident"] = static_cast<double>(library);
  state.counters["batch"] = static_cast<double>(entries.size() - library);
}
BENCHMARK(BM_AsyncSubmitDrain)->Unit(benchmark::kMillisecond);

// Consumer-scaling curve: the same fixed submission stream as
// BM_AsyncSubmitDrain, but screened by a pool of state.range(0)
// consumers with single-submission chunks, so concurrent batches
// actually overlap. Verdicts stay bit-identical for every Arg
// (per-submission ticket-ordered commits); the axis shows what the
// multi-consumer refactor buys on the parallel compile+embed phase and
// what the commit turnstile costs.
void BM_ConcurrentScreen(benchmark::State& state) {
  const std::vector<train::GraphEntry>& entries = scoring_corpus();
  const std::size_t library = entries.size() - 8;
  gnn::Hw2Vec model;
  audit::AuditOptions options;
  options.num_shards = 2;
  options.max_resident = library;
  audit::AsyncOptions async;
  async.num_consumers = static_cast<std::size_t>(state.range(0));
  async.max_batch = 1;  // one submission per chunk: consumers overlap
  audit::AsyncAuditor auditor(model, options, std::move(async));
  for (std::size_t i = 0; i < library; ++i) {
    (void)auditor.service().add_library(entries[i]);
  }
  for (auto _ : state) {
    std::vector<std::future<audit::ScreenReport>> futures;
    futures.reserve(entries.size() - library);
    for (std::size_t i = library; i < entries.size(); ++i) {
      futures.push_back(auditor.submit(entries[i]));
    }
    std::size_t verdicts = 0;
    for (std::future<audit::ScreenReport>& f : futures) {
      verdicts += f.get().verdicts.size();
    }
    benchmark::DoNotOptimize(verdicts);
  }
  state.counters["resident"] = static_cast<double>(library);
  state.counters["consumers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ConcurrentScreen)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// One durable round trip across shard counts: save_corpus writes the
// whole resident corpus (binary shard files + manifest + service
// state), then a fresh service warm-restarts from it. Measures the
// checkpoint/restart cost a deployment pays, dominated by the exact-
// byte float block IO; the snapshot_test suite pins the fidelity.
void BM_SnapshotRoundTrip(benchmark::State& state) {
  const std::vector<train::GraphEntry>& entries = scoring_corpus();
  gnn::Hw2Vec model;
  audit::AuditOptions options;
  options.num_shards = static_cast<std::size_t>(state.range(0));
  audit::AuditService service(model, options);
  for (const train::GraphEntry& entry : entries) {
    (void)service.add_library(entry);
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gnn4ip_bench_snapshot")
          .string();
  for (auto _ : state) {
    service.save_corpus(dir);
    audit::AuditService restored(model, options);
    restored.load_corpus(dir);
    benchmark::DoNotOptimize(restored.resident());
  }
  std::filesystem::remove_all(dir);
  state.counters["resident"] = static_cast<double>(entries.size());
  state.counters["shards"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SnapshotRoundTrip)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- Screening at corpus scale. ---
//
// The 64 real designs cap what the embedding front end can feed a bench
// iteration, but screening cost is about 10k+ resident rows. So these
// benches screen a synthetic-variant corpus: real anchor embeddings
// (the RTL corpus plus a handful of data::obfuscate netlist variants)
// blended pairwise with deterministic noise — corpus-shaped geometry
// (clusters + spread) at whatever N the bench asks for, reproducible run
// to run.

std::vector<float> matrix_row(const tensor::Matrix& m) {
  const std::span<const float> row = m.row(0);
  return {row.begin(), row.end()};
}

const std::vector<std::vector<float>>& anchor_embeddings() {
  static const std::vector<std::vector<float>> anchors = [] {
    gnn::Hw2Vec model;
    std::vector<std::vector<float>> out;
    for (const train::GraphEntry& e : scoring_corpus()) {
      out.push_back(matrix_row(model.embed_inference(e.tensors)));
    }
    const data::Netlist base = data::build_netlist_family("nl_alu4");
    util::Rng rng(11);
    for (int v = 0; v < 8; ++v) {
      out.push_back(matrix_row(model.embed_inference(gnn::featurize(
          dfg::extract_dfg(data::obfuscate(base, {}, rng).to_verilog())))));
    }
    return out;
  }();
  return anchors;
}

// Works for any CorpusBackend front end (ShardedCorpus, DistCorpus):
// the RNG stream depends only on (rows, seed), so every backend sees
// byte-identical embeddings.
template <typename Corpus>
void fill_variant_corpus(Corpus& corpus, std::size_t rows,
                         std::uint64_t seed) {
  const std::vector<std::vector<float>>& anchors = anchor_embeddings();
  const std::size_t d = anchors.front().size();
  float scale = 0.0F;
  for (const float x : anchors.front()) scale += std::abs(x);
  scale /= static_cast<float>(d);
  util::Rng rng(seed);
  tensor::Matrix row(1, d);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::vector<float>& a = anchors[rng.next_below(anchors.size())];
    const std::vector<float>& b = anchors[rng.next_below(anchors.size())];
    const float w = rng.uniform(0.0F, 1.0F);
    for (std::size_t k = 0; k < d; ++k) {
      row.at(0, k) = w * a[k] + (1.0F - w) * b[k] +
                     scale * static_cast<float>(rng.normal());
    }
    corpus.add("variant#" + std::to_string(i), row);
  }
}

// Incremental screening against a 10k-row resident corpus through
// screen_new_rows: `batch` incoming rows against `shards` hash-placed
// shards with `threads` fan-out workers (0 = the shared pool), δ = 0.5.
void sharded_screen_10k(benchmark::State& state, std::size_t shards,
                        std::size_t batch, std::size_t threads) {
  constexpr std::size_t kResident = 10'000;
  core::ScorerOptions options;
  options.num_threads = threads;
  core::ShardedCorpus corpus(shards, options);
  fill_variant_corpus(corpus, kResident + batch, /*seed=*/5);
  for (auto _ : state) {
    const std::vector<core::ScreenRow> rows =
        corpus.screen_new_rows(kResident, 0.5F);
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kResident * batch) *
                          state.iterations());
  state.counters["resident"] = static_cast<double>(kResident);
  state.counters["batch"] = static_cast<double>(batch);
}

// A batch of 8 over 4 shards on the shared pool — the in-process
// counterpart of BM_RemoteScreen.
void BM_ShardedScreen10k(benchmark::State& state) {
  sharded_screen_10k(state, /*shards=*/4, /*batch=*/8, /*threads=*/0);
}
BENCHMARK(BM_ShardedScreen10k)->Unit(benchmark::kMillisecond);

// One probe, one shard, inline (library_10k's shape: each commit screens
// one submission): the tile sweep alone, without pool scheduling noise.
void BM_ShardedScreen10kSerial(benchmark::State& state) {
  sharded_screen_10k(state, /*shards=*/1, /*batch=*/1, /*threads=*/1);
}
BENCHMARK(BM_ShardedScreen10kSerial)->Unit(benchmark::kMicrosecond);

// --- Distributed screening over real loopback TCP. ---
//
// BM_RemoteScreen is the wire-path counterpart of BM_ShardedScreen10k:
// the same 8-probe screen_new_rows sweep over a 10k-row variant corpus,
// but the resident rows live in state.range(0) in-process ShardServer
// instances behind real TCP sockets with a DistCorpus front end —
// G4IPWIRE framing, buffered admissions, vectored probe-slab writes,
// pipelined fan-out/fan-in and the fixed-tie-break merge included.
// dist_test pins the outputs bit-identical to the in-process corpus;
// the axis shows what the wire costs (1 server) and what shard-process
// parallelism buys back (2 servers) on multi-core hosts.
void BM_RemoteScreen(benchmark::State& state) {
  constexpr std::size_t kResident = 10'000;
  constexpr std::size_t kBatch = 8;
  const auto shards = static_cast<std::size_t>(state.range(0));
  dist::ShardServerOptions server_options;
  server_options.poll_ms = 5;
  std::vector<std::unique_ptr<dist::ShardServer>> servers;
  std::vector<std::thread> serving;
  std::vector<dist::Endpoint> endpoints;
  for (std::size_t s = 0; s < shards; ++s) {
    servers.push_back(std::make_unique<dist::ShardServer>(0, server_options));
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
    serving.emplace_back([&server = *servers.back()] { server.serve(); });
  }
  {
    core::ScorerOptions options;
    options.num_threads = shards;  // one fan-out worker per server
    auto corpus = dist::DistCorpus::connect(endpoints, /*fingerprint=*/"",
                                            options);
    fill_variant_corpus(*corpus, kResident + kBatch, /*seed=*/5);
    for (auto _ : state) {
      const std::vector<core::ScreenRow> rows =
          corpus->screen_new_rows(kResident, 0.5F);
      benchmark::DoNotOptimize(rows.size());
    }
    state.SetItemsProcessed(static_cast<int64_t>(kResident * kBatch) *
                            state.iterations());
    state.counters["resident"] = static_cast<double>(kResident);
    state.counters["batch"] = static_cast<double>(kBatch);
    state.counters["servers"] = static_cast<double>(shards);
  }  // hang up before stopping the servers
  for (auto& server : servers) server->stop();
  for (std::thread& t : serving) t.join();
}
BENCHMARK(BM_RemoteScreen)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineWl(benchmark::State& state) {
  const graph::Digraph a = dfg::extract_dfg(medium_rtl());
  const graph::Digraph b =
      dfg::extract_dfg(data::gen_mips_single({0, 2}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::wl_histogram_similarity(a, b));
  }
}
BENCHMARK(BM_BaselineWl);

void BM_BaselineNeighborMatching(benchmark::State& state) {
  const graph::Digraph a = dfg::extract_dfg(medium_rtl());
  const graph::Digraph b =
      dfg::extract_dfg(data::gen_mips_single({0, 2}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::neighbor_matching_similarity(a, b, {.iterations = 4}));
  }
}
BENCHMARK(BM_BaselineNeighborMatching);

void BM_ObfuscateNetlist(benchmark::State& state) {
  const data::Netlist base = data::build_netlist_family("nl_alu4");
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::obfuscate(base, {}, rng));
  }
}
BENCHMARK(BM_ObfuscateNetlist);

}  // namespace

BENCHMARK_MAIN();
