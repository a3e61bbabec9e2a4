// Spans and the layer-by-layer replay of the traced run.
//
// After each timed service call, the traced run replays the same source
// through the public calls dfg::extract_dfg composes, then featurize and
// embed_inference, and the commit's corpus calls on mirror corpora that
// hold the same rows (add, screen, remove, compact). Every call becomes
// one span, kept in memory and written out at exit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/corpus_backend.h"
#include "gnn/hw2vec.h"
#include "tensor/matrix.h"
#include "tensor/tape.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kService,      // submit + screen on the AuditService (the timed call)
  kReplay,       // parent of one submission's replayed calls
  kParse,        // verilog::parse
  kElaborate,    // verilog::infer_top_module + verilog::elaborate
  kDataflow,     // dfg::analyze_dataflow
  kMerge,        // dfg::merge_drivers
  kTrim,         // dfg::trim
  kFeaturize,    // gnn::featurize
  kEmbed,        // gnn::Hw2Vec::embed_inference
  kCoreAdd,      // core::ShardedCorpus::add
  kCoreScreen,   // core::ShardedCorpus::screen_new_rows
  kCoreCompact,  // core::ShardedCorpus::remove + compact
  kDistAdd,      // the same three calls on dist::DistCorpus
  kDistScreen,
  kDistCompact,
  kAddLibrary,   // audit::AuditService::add_library, one library design
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kService;
  std::int32_t parent = -1;  // index into the span list; -1 for roots
  std::uint64_t submission = 0;
  std::int64_t start_ns = 0;  // steady clock
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  // calling thread's CPU time inside the span
};

/// Monotonic wall clock and calling-thread CPU clock, in nanoseconds.
[[nodiscard]] std::int64_t wall_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();

class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }

  /// Open a span; returns its id for end() and as a child's parent.
  std::int32_t begin(Layer layer, std::uint64_t submission,
                     std::int32_t parent = -1);
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Tab-separated: id, parent, submission, layer, start, end, cpu.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// What the replayed front end produced for one source.
struct FrontEnd {
  bool ok = false;
  std::string error;  // the ParseError / runtime_error text when !ok
  std::size_t nodes = 0;
  std::size_t edges = 0;
  gnn4ip::tensor::Matrix embedding;
};

/// verilog::parse → infer_top_module + elaborate → analyze_dataflow →
/// merge_drivers → trim → featurize → embed_inference, one span each
/// (parent `parent`) when `tracer` is set.
[[nodiscard]] FrontEnd replay_front_end(const std::string& source,
                                        gnn4ip::gnn::Hw2Vec& model,
                                        gnn4ip::tensor::Tape& tape,
                                        Tracer* tracer,
                                        std::uint64_t submission,
                                        std::int32_t parent);

/// One commit on a mirror corpus: add the row, screen it against every
/// earlier row, then evict it again (remove + compact) — exactly what
/// the service does when max_resident equals the pinned library size.
/// `layers` names the add / screen / compact spans.
[[nodiscard]] gnn4ip::core::ScreenRow replay_commit(
    gnn4ip::core::CorpusBackend& corpus, const std::string& name,
    const gnn4ip::tensor::Matrix& embedding, float delta, Tracer& tracer,
    const std::array<Layer, 3>& layers, std::uint64_t submission,
    std::int32_t parent);

}  // namespace perfbench
