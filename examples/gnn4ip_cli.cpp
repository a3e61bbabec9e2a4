// gnn4ip_cli — command-line front end for the library.
//
//   gnn4ip_cli extract <design.v>                 print DFG stats + DOT
//   gnn4ip_cli train <model.txt> [epochs]         train on bundled corpus
//   gnn4ip_cli embed <model.txt> <design.v>       print the h_G vector
//   gnn4ip_cli compare <model.txt> <a.v> <b.v> [delta]
//                                                 Alg. 1 piracy check
//   gnn4ip_cli audit <model.txt> --corpus <lib.v> [--corpus <lib2.v> ...]
//              [--delta <d>] [--top-k <k>] [--max-resident <n>]
//              [--shards <k> | --connect <host:port,...>]
//              [--threads <n>] [--async] [--consumers <n>]
//              [--load-corpus <dir>] [--save-corpus <dir>]
//              <design.v> [<design2.v> ...]
//                                                 screen designs against
//                                                 a resident IP library
//
// Designs are Verilog files (RTL or gate-level netlist). Models are the
// text format of gnn/model_io.h, produced by `train`. End-to-end piracy
// flows (compare, audit) run through audit::AuditService; a malformed
// design gets a per-file diagnostic and never aborts the batch.
//
// --shards splits the resident corpus across k hash-placed shards and
// --async screens through the audit::AsyncAuditor consumer pool; both
// are transparent to the output — verdicts are bit-identical to the
// single-shard synchronous run. --threads pins the scorer worker count
// and --consumers (implies --async) the screening-consumer count; each
// flag takes precedence over its environment knob (GNN4IP_THREADS /
// GNN4IP_CONSUMERS, which only apply when no explicit count is set).
//
// Every numeric argument must parse whole: counts are whole numbers in
// their documented range (--shards/--threads/--consumers/epochs ≥ 1,
// --top-k/--max-resident ≥ 0) and δ is a finite number. Anything else
// is a usage error (exit 2), never a silent default.
//
// --save-corpus writes the post-screening resident corpus as a
// versioned snapshot directory (docs/FORMATS.md); --load-corpus warm-
// restarts from one before any --corpus additions, standing in for the
// library list entirely (with it, --corpus becomes optional). A
// snapshot is tied to the model that produced it: loading against a
// different model fails with a fingerprint error rather than silently
// scoring mismatched embeddings.
//
// --connect screens against gnn4ip_shardd shard-server processes
// instead of an in-process corpus — one endpoint per shard, same
// placement map, bit-identical verdicts (docs/ARCHITECTURE.md,
// "Distributed screening"). Mutually exclusive with --shards and
// --async. Connection and protocol failures exit 5 so scripts can tell
// "cluster trouble" from "bad design" (3) and "bad snapshot" (4).
#include <cfloat>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/snapshot_format.h"
#include "dist/dist_corpus.h"
#include "gnn/model_io.h"
#include "graph/serialize.h"
#include "net/wire_format.h"

namespace {

using namespace gnn4ip;

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The value of numeric argument `what`, or exit 2: the whole token
/// must parse as a T within [lo, hi]. from_chars takes no sign on
/// unsigned types, so "-1" is refused rather than wrapped, and a NaN
/// fails the range test, so a finite range refuses "nan" and "inf".
/// A floating-point value may carry one leading '+', as `compare` and
/// `audit` print δ; from_chars itself takes none, so "+-1" and "++1"
/// are still refused.
template <typename T>
T parse_arg(const std::string& text, const char* what, T lo, T hi) {
  T value{};
  const char* first = text.data();
  const char* end = first + text.size();
  if constexpr (std::is_floating_point_v<T>) {
    if (text.size() > 1 && text[0] == '+' && text[1] != '-') ++first;
  }
  const auto [ptr, ec] = std::from_chars(first, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "error: invalid value '%s' for %s\n", text.c_str(),
                 what);
    std::exit(2);
  }
  return value;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gnn4ip_cli extract <design.v>\n"
      "  gnn4ip_cli train <model.txt> [epochs]\n"
      "  gnn4ip_cli embed <model.txt> <design.v>\n"
      "  gnn4ip_cli compare <model.txt> <a.v> <b.v> [delta]\n"
      "  gnn4ip_cli audit <model.txt> --corpus <lib.v> [--corpus ...]\n"
      "             [--delta <d>] [--top-k <k>] [--max-resident <n>]\n"
      "             [--shards <k> | --connect <host:port,...>]\n"
      "             [--threads <n>] [--async] [--consumers <n>]\n"
      "             [--load-corpus <dir>] [--save-corpus <dir>]\n"
      "             <design.v> [...]\n"
      "  (--threads / --consumers override the GNN4IP_THREADS /\n"
      "   GNN4IP_CONSUMERS environment variables; --consumers implies\n"
      "   --async; with --load-corpus, --corpus is optional)\n");
  return 2;
}

int cmd_extract(const std::string& path) {
  const audit::CompileResult compiled = audit::compile_rtl(read_file(path));
  if (!compiled.ok) {
    std::fprintf(stderr, "parse error: %s\n",
                 compiled.error.to_string().c_str());
    return 3;
  }
  const dfg::DfgSummary s = dfg::summarize(compiled.design.dfg);
  std::printf("# %s: %zu nodes, %zu edges, %zu inputs, %zu outputs, "
              "%zu operators\n",
              path.c_str(), s.num_nodes, s.num_edges, s.num_inputs,
              s.num_outputs, s.num_operators);
  std::fputs(graph::to_dot(compiled.design.dfg).c_str(), stdout);
  return 0;
}

int cmd_train(const std::string& model_path, int epochs) {
  std::fprintf(stderr, "building corpus and training (%d epochs)...\n",
               epochs);
  data::RtlCorpusOptions corpus;
  corpus.instances_per_family = 8;
  DetectorConfig config;
  config.model.seed = 5;
  PiracyDetector detector(config);
  train::TrainConfig tc;
  tc.epochs = epochs;
  tc.learning_rate = 3e-3F;
  const auto eval = detector.train_on(
      make_graph_entries(data::build_rtl_corpus(corpus)), tc);
  std::fprintf(stderr, "held-out accuracy %.2f%%, delta %+.3f\n",
               100.0 * eval.confusion.accuracy(), detector.delta());
  detector.save(model_path);
  std::fprintf(stderr, "saved %s\n", model_path.c_str());
  // Record the tuned delta on stdout so scripts can capture it and pass
  // it back as `compare`'s or `audit --delta`'s value: nine significant
  // digits round-trip a float.
  std::printf("%.9g\n", detector.delta());
  return 0;
}

int cmd_embed(const std::string& model_path, const std::string& design) {
  PiracyDetector detector;
  detector.load(model_path);
  const tensor::Matrix h = detector.embed(read_file(design));
  for (std::size_t c = 0; c < h.cols(); ++c) {
    if (c != 0) std::printf(" ");
    std::printf("%.6f", h.at(0, c));
  }
  std::printf("\n");
  return 0;
}

int cmd_compare(const std::string& model_path, const std::string& a,
                const std::string& b, float delta) {
  audit::AuditOptions options;
  options.scorer.delta = delta;
  audit::AuditService service =
      audit::AuditService::from_model_file(model_path, options);
  // Distinct resident names even when both arguments are the same file
  // (submitting a resident name would replace the library row).
  const audit::Submission lib = service.add_library("a:" + a, read_file(a));
  if (!lib.accepted) {
    std::fprintf(stderr, "%s: parse error: %s\n", a.c_str(),
                 lib.error.to_string().c_str());
    return 3;
  }
  (void)service.submit("b:" + b, read_file(b));
  for (const audit::ScreenReport& report : service.screen()) {
    if (!report.submission.accepted) {
      std::fprintf(stderr, "%s: parse error: %s\n", b.c_str(),
                   report.submission.error.to_string().c_str());
      return 3;
    }
    if (!report.best) continue;
    const audit::Verdict& v = *report.best;
    std::printf("similarity %+.6f  delta %+.3f  verdict %s\n", v.similarity,
                delta, v.flagged ? "PIRACY" : "no-piracy");
    return v.flagged ? 0 : 1;  // exit code: 0 = flagged, like grep
  }
  return 3;
}

int cmd_audit(const std::vector<std::string>& args) {
  // args = everything after "audit": model path, flags, incoming files.
  if (args.empty()) return usage();
  const std::string model_path = args[0];
  std::vector<std::string> corpus_files;
  std::vector<std::string> incoming_files;
  audit::AuditOptions options;
  audit::AsyncOptions async_options;
  std::size_t top_k = 0;
  bool use_async = false;
  bool saw_shards = false;
  std::string connect_spec;
  std::string load_dir;
  std::string save_dir;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next_value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--corpus") {
      corpus_files.push_back(next_value());
    } else if (arg == "--delta") {
      options.scorer.delta =
          parse_arg(next_value(), "--delta", -FLT_MAX, FLT_MAX);
    } else if (arg == "--top-k") {
      top_k = parse_arg<std::size_t>(next_value(), "--top-k", 0, SIZE_MAX);
    } else if (arg == "--max-resident") {
      options.max_resident =
          parse_arg<std::size_t>(next_value(), "--max-resident", 0, SIZE_MAX);
    } else if (arg == "--shards") {
      options.num_shards =
          parse_arg<std::size_t>(next_value(), "--shards", 1, SIZE_MAX);
      saw_shards = true;
    } else if (arg == "--connect") {
      connect_spec = next_value();
    } else if (arg == "--threads") {
      // Explicit worker count: takes precedence over GNN4IP_THREADS
      // (the env knob only resolves when num_threads stays 0).
      options.scorer.num_threads =
          parse_arg<std::size_t>(next_value(), "--threads", 1, SIZE_MAX);
    } else if (arg == "--async") {
      use_async = true;
    } else if (arg == "--load-corpus") {
      load_dir = next_value();
    } else if (arg == "--save-corpus") {
      save_dir = next_value();
    } else if (arg == "--consumers") {
      // Explicit consumer-pool size: takes precedence over
      // GNN4IP_CONSUMERS (the env knob only resolves when
      // num_consumers stays 0). Implies --async — a consumer pool
      // only exists on the async front end.
      async_options.num_consumers =
          parse_arg<std::size_t>(next_value(), "--consumers", 1, SIZE_MAX);
      use_async = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      incoming_files.push_back(arg);
    }
  }
  // A snapshot stands in for the --corpus library list entirely.
  if (corpus_files.empty() && load_dir.empty()) return usage();
  if (incoming_files.empty()) return usage();
  if (!connect_spec.empty() && saw_shards) {
    std::fprintf(stderr, "error: --connect and --shards are mutually "
                         "exclusive (the server count IS the shard count)\n");
    return 2;
  }
  if (!connect_spec.empty() && use_async) {
    std::fprintf(stderr,
                 "error: --connect does not combine with --async yet\n");
    return 2;
  }

  // The async front end owns the service; the sync path stands one up
  // directly. Verdicts are bit-identical either way — --async and
  // --shards only change when and where the screening work runs.
  std::unique_ptr<audit::AsyncAuditor> auditor;
  std::unique_ptr<audit::AuditService> owned_service;
  if (use_async) {
    auditor = audit::AsyncAuditor::from_model_file(model_path, options,
                                                   async_options);
  } else if (!connect_spec.empty()) {
    // Distributed corpus: one gnn4ip_shardd process per endpoint. The
    // handshake pins this model's fingerprint cluster-wide, and the
    // backend's shard count (the server count) overrides --shards.
    gnn::Hw2Vec model = gnn::load_model_file(model_path);
    const std::string fingerprint = gnn::model_fingerprint(model);
    // With --load-corpus the servers may already hold the snapshot's
    // rows (gnn4ip_shardd --load-shard); connect tolerates that and the
    // restore reconciles them (adopt when the tallies match, reset and
    // re-push otherwise).
    auto corpus = dist::DistCorpus::connect(
        dist::parse_endpoints(connect_spec), fingerprint, options.scorer,
        /*allow_resident=*/!load_dir.empty());
    owned_service = std::make_unique<audit::AuditService>(
        std::move(model), options, std::move(corpus));
  } else {
    owned_service = std::make_unique<audit::AuditService>(
        gnn::load_model_file(model_path), options);
  }
  audit::AuditService& service =
      use_async ? auditor->service() : *owned_service;

  if (!load_dir.empty()) {
    // Warm restart before any --corpus additions: the snapshot is the
    // baseline library, --corpus files land on top (replacing same-name
    // rows, exactly like re-adding to a warm service).
    service.load_corpus(load_dir);
    std::fprintf(stderr, "loaded corpus snapshot %s (%zu resident)\n",
                 load_dir.c_str(), service.resident());
  }
  for (const std::string& path : corpus_files) {
    const audit::Submission s = service.add_library(path, read_file(path));
    if (!s.accepted) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                   s.error.to_string().c_str());
      return 3;
    }
  }
  std::fprintf(
      stderr,
      "resident library: %zu design(s), D=%zu, delta %+.3f, %zu shard(s)%s\n",
      service.resident(), service.model().embedding_dim(), service.delta(),
      service.corpus().num_shards(), use_async ? ", async" : "");

  int flagged_designs = 0;
  const auto report_batch =
      [&](const std::vector<audit::ScreenReport>& reports) {
        for (const audit::ScreenReport& report : reports) {
          const audit::Submission& s = report.submission;
          if (!s.accepted) {
            std::printf("%-40s PARSE-ERROR %s\n", s.name.c_str(),
                        s.error.to_string().c_str());
            continue;
          }
          if (!report.verdicts.empty()) {
            ++flagged_designs;
            for (const audit::Verdict& v : report.verdicts) {
              std::printf("%-40s PIRACY     %+0.4f  %s\n", s.name.c_str(),
                          v.similarity, v.matched.c_str());
            }
          } else {
            std::printf("%-40s clean      %+0.4f  (closest: %s)\n",
                        s.name.c_str(),
                        report.best ? report.best->similarity : 0.0F,
                        report.best ? report.best->matched.c_str() : "-");
          }
          if (top_k > 0 && service.contains(s.name)) {
            for (const audit::Verdict& v : service.top_k(s.name, top_k)) {
              std::printf("  top-%zu: %-33s %+0.4f%s\n", top_k,
                          v.matched.c_str(), v.similarity,
                          v.flagged ? "  [!]" : "");
            }
          }
        }
      };

  if (use_async) {
    // Producers hand everything to the daemon and never wait on a batch
    // boundary; futures resolve as the consumer thread screens. Reports
    // print in submission order after quiesce() so top_k sees the final
    // resident corpus (same as the sync path's post-screen queries).
    std::vector<std::future<audit::ScreenReport>> futures;
    futures.reserve(incoming_files.size());
    for (const std::string& path : incoming_files) {
      futures.push_back(auditor->submit(path, read_file(path)));
    }
    auditor->quiesce();
    std::vector<audit::ScreenReport> reports;
    reports.reserve(futures.size());
    for (std::future<audit::ScreenReport>& f : futures) {
      reports.push_back(f.get());
    }
    report_batch(reports);
    std::fprintf(stderr,
                 "async: %zu submission(s) in %zu batch(es), %zu consumer(s)\n",
                 auditor->reported(), auditor->batches(),
                 auditor->consumers());
  } else {
    for (const std::string& path : incoming_files) {
      if (!service.submit(path, read_file(path))) {
        // Bounded queue full: screen (and report) what we have, retry.
        report_batch(service.screen());
        (void)service.submit(path, read_file(path));
      }
    }
    report_batch(service.screen());
  }

  if (!save_dir.empty()) {
    // Quiesce-then-save on the async path (AsyncAuditor::save_corpus);
    // the sync path is already drained. Either way the snapshot holds
    // exactly the post-screening resident corpus.
    if (use_async) {
      auditor->save_corpus(save_dir);
    } else {
      service.save_corpus(save_dir);
    }
    std::fprintf(stderr, "saved corpus snapshot to %s (%zu resident)\n",
                 save_dir.c_str(), service.resident());
  }

  std::printf("%d of %zu design(s) flagged above delta %+.3f\n",
              flagged_designs, incoming_files.size(), service.delta());
  return flagged_designs > 0 ? 0 : 1;  // exit code: 0 = flagged, like grep
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "extract" && argc == 3) {
      return cmd_extract(argv[2]);
    }
    if (cmd == "train" && (argc == 3 || argc == 4)) {
      return cmd_train(argv[2],
                       argc == 4 ? parse_arg(std::string(argv[3]), "epochs",
                                             1, INT_MAX)
                                 : 60);
    }
    if (cmd == "embed" && argc == 4) {
      return cmd_embed(argv[2], argv[3]);
    }
    if (cmd == "compare" && (argc == 5 || argc == 6)) {
      const float delta =
          argc == 6
              ? parse_arg(std::string(argv[5]), "delta", -FLT_MAX, FLT_MAX)
              : 0.5F;
      return cmd_compare(argv[2], argv[3], argv[4], delta);
    }
    if (cmd == "audit" && argc >= 3) {
      return cmd_audit(std::vector<std::string>(argv + 2, argv + argc));
    }
  } catch (const verilog::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 3;
  } catch (const core::SnapshotError& e) {
    // Every malformed-snapshot case is a typed error, never a crash;
    // give it a distinct exit code so scripts can tell "bad snapshot"
    // from "bad design".
    std::fprintf(stderr, "snapshot error: %s\n", e.what());
    return 4;
  } catch (const net::WireError& e) {
    // Cluster trouble (refused connection, protocol violation, a shard
    // dying mid-screen) is typed end to end; scripts get a distinct
    // exit code instead of a hang or a generic failure.
    std::fprintf(stderr, "connection error: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  return usage();
}
