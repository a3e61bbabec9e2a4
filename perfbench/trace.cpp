#include "trace.h"

#include <time.h>

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "dfg/dataflow.h"
#include "dfg/merge.h"
#include "dfg/trim.h"
#include "gnn/featurize.h"
#include "verilog/diagnostics.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"

namespace perfbench {

namespace gnn = gnn4ip::gnn;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kService: return "audit.service";
    case Layer::kReplay: return "replay";
    case Layer::kParse: return "verilog.parse";
    case Layer::kElaborate: return "verilog.elaborate";
    case Layer::kDataflow: return "dfg.dataflow";
    case Layer::kMerge: return "dfg.merge";
    case Layer::kTrim: return "dfg.trim";
    case Layer::kFeaturize: return "gnn.featurize";
    case Layer::kEmbed: return "gnn.embed";
    case Layer::kCoreAdd: return "core.add";
    case Layer::kCoreScreen: return "core.screen";
    case Layer::kCoreCompact: return "core.compact";
    case Layer::kDistAdd: return "dist.add";
    case Layer::kDistScreen: return "dist.screen";
    case Layer::kDistCompact: return "dist.compact";
    case Layer::kAddLibrary: return "audit.add_library";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int32_t Tracer::begin(Layer layer, std::uint64_t submission,
                           std::int32_t parent) {
  Span span;
  span.layer = layer;
  span.parent = parent;
  span.submission = submission;
  span.cpu_ns = thread_cpu_ns();
  span.start_ns = wall_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = wall_ns();
  span.cpu_ns = thread_cpu_ns() - span.cpu_ns;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to '" + path + "'");
  os << "id\tparent\tsubmission\tlayer\tstart_ns\tend_ns\tcpu_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.submission << '\t'
       << layer_name(s.layer) << '\t' << s.start_ns << '\t' << s.end_ns
       << '\t' << s.cpu_ns << '\n';
  }
  if (!os.flush()) throw std::runtime_error("short write to '" + path + "'");
}

namespace {

/// Runs `fn` inside a span when tracing, bare otherwise.
template <typename Fn>
decltype(auto) in_span(Tracer* tracer, Layer layer, std::uint64_t submission,
                       std::int32_t parent, Fn&& fn) {
  if (tracer == nullptr) return fn();
  struct Closer {
    Tracer* tracer;
    std::int32_t id;
    ~Closer() { tracer->end(id); }
  } closer{tracer, tracer->begin(layer, submission, parent)};
  return fn();
}

}  // namespace

FrontEnd replay_front_end(const std::string& source, gnn::Hw2Vec& model,
                          gnn4ip::tensor::Tape& tape, Tracer* tracer,
                          std::uint64_t submission, std::int32_t parent) {
  namespace verilog = gnn4ip::verilog;
  namespace dfg = gnn4ip::dfg;
  FrontEnd out;
  // The same stages, options and error classes as audit::compile_rtl.
  try {
    const verilog::Design design =
        in_span(tracer, Layer::kParse, submission, parent,
                [&] { return verilog::parse(source); });
    const verilog::Module flat =
        in_span(tracer, Layer::kElaborate, submission, parent, [&] {
          return verilog::elaborate(design, verilog::infer_top_module(design));
        });
    const std::vector<dfg::SignalDriver> drivers =
        in_span(tracer, Layer::kDataflow, submission, parent,
                [&] { return dfg::analyze_dataflow(flat); });
    gnn4ip::graph::Digraph g =
        in_span(tracer, Layer::kMerge, submission, parent,
                [&] { return dfg::merge_drivers(flat, drivers); });
    in_span(tracer, Layer::kTrim, submission, parent,
            [&] { return dfg::trim(g); });
    out.nodes = g.num_nodes();
    out.edges = g.num_edges();
    const gnn::GraphTensors tensors =
        in_span(tracer, Layer::kFeaturize, submission, parent,
                [&] { return gnn::featurize(g); });
    out.embedding = in_span(tracer, Layer::kEmbed, submission, parent,
                            [&] { return model.embed_inference(tape, tensors); });
    out.ok = true;
  } catch (const verilog::ParseError& e) {
    out.error = e.message();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

gnn4ip::core::ScreenRow replay_commit(gnn4ip::core::CorpusBackend& corpus,
                                      const std::string& name,
                                      const gnn4ip::tensor::Matrix& embedding,
                                      float delta, Tracer& tracer,
                                      const std::array<Layer, 3>& layers,
                                      std::uint64_t submission,
                                      std::int32_t parent) {
  const std::size_t row = in_span(&tracer, layers[0], submission, parent,
                                  [&] { return corpus.add(name, embedding); });
  gnn4ip::core::ScreenRow screened =
      in_span(&tracer, layers[1], submission, parent, [&] {
        return std::move(corpus.screen_new_rows(row, delta).front());
      });
  in_span(&tracer, layers[2], submission, parent, [&] {
    corpus.remove(row);
    return corpus.compact();
  });
  return screened;
}

}  // namespace perfbench
