// Hierarchy elaboration: flatten a multi-module design into a single
// module (the "Preprocess … flatten the modular codes" phase of the
// paper's Fig. 2 pipeline).
//
// Instances are inlined recursively. Internal signals of an instance
// `u1` of a child get hierarchical names `u1.sig`; port connections
// become continuous assigns; parameters are resolved to constants with
// overrides applied. Inout ports and recursive instantiation raise
// ParseError.
//
// The design is taken by value: the top module's nets, assigns, always
// blocks and gates move into the flat module, so a caller that is done
// with its design moves it in, and one that keeps it passes a copy
// (statements and expressions are shared, so a copy copies pointers).
// An instance's module is copied from the design and rewritten.
#pragma once

#include <cstddef>
#include <string>

#include "verilog/ast.h"

namespace gnn4ip::verilog {

/// Instances nested deeper than this below the top raise ParseError
/// (cycles are also detected directly).
inline constexpr int kMaxHierarchyDepth = 64;

/// The flat module's nets, assigns, always blocks and gates together.
/// A hierarchy whose instances are inlined past this count raises
/// ParseError at the instance that crosses it: fan-out doubles the
/// flattened design per level, so a small source could otherwise
/// flatten to millions of items.
inline constexpr std::size_t kMaxFlatItems = 100'000;

/// Flatten `top` (by module name) within `design` into a self-contained
/// module with no instances and no unresolved parameters. `top` must not
/// view `design`, which this call consumes.
[[nodiscard]] Module elaborate(Design design, const std::string& top);

/// Convenience: pick the unique module that is never instantiated by
/// another (throws ParseError if that module is not unique).
[[nodiscard]] std::string infer_top_module(const Design& design);

}  // namespace gnn4ip::verilog
