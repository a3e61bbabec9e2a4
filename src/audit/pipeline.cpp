#include "audit/pipeline.h"

#include "util/thread_pool.h"

namespace gnn4ip::audit {

CompileResult compile_rtl(const std::string& verilog_source,
                          const dfg::PipelineOptions& pipeline) {
  CompileResult result;
  try {
    result.design.dfg = dfg::extract_dfg(verilog_source, pipeline);
    result.design.tensors = gnn::featurize(result.design.dfg);
    result.ok = true;
  } catch (const verilog::ParseError& e) {
    result.error = {e.message(), e.location()};
  } catch (const std::runtime_error& e) {
    // Non-parse user-input failures (e.g. no module to elaborate) carry
    // no source position. ContractViolation is a logic_error and still
    // propagates: that is a library bug, not a bad design.
    result.error = {e.what(), {}};
  }
  return result;
}

std::vector<CompileResult> Pipeline::compile_batch(
    std::span<const std::string> sources, std::size_t num_threads) const {
  std::vector<CompileResult> results(sources.size());
  util::parallel_for(sources.size(), num_threads, [&](std::size_t i) {
    results[i] = compile(sources[i]);
  });
  return results;
}

}  // namespace gnn4ip::audit
