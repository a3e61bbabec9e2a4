#include "audit/pipeline.h"

namespace gnn4ip::audit {

CompileResult compile_rtl(const std::string& verilog_source) {
  CompileResult result;
  try {
    result.design.dfg = dfg::extract_dfg(verilog_source);
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

}  // namespace gnn4ip::audit
