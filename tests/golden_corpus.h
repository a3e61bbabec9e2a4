// The in-tree generator corpus the byte-for-byte front-end pins hash
// (dfg_test's FrontEndGolden, verilog_test's LexerGolden), and the hash
// they feed.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/corpus.h"
#include "data/iscas.h"
#include "data/obfuscate.h"
#include "data/rtl_designs.h"
#include "util/rng.h"

namespace gnn4ip::golden {

/// FNV-1a, 64-bit, fed fixed-width little-endian values so a hash names the
/// same bytes on every platform.
class Fnv1a {
 public:
  void byte(std::uint8_t b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f32(float f) { u64(std::bit_cast<std::uint32_t>(f)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Each ISCAS stand-in as generated and once obfuscated, every structural
/// netlist family, and every RTL family in each of its styles, as
/// (label, Verilog source) pairs.
inline std::vector<std::pair<std::string, std::string>> designs() {
  std::vector<std::pair<std::string, std::string>> out;
  std::uint64_t seed = 1;
  for (const data::IscasBenchmark& bench : data::iscas_benchmarks()) {
    out.emplace_back("iscas/" + bench.name, bench.netlist.to_verilog());
    util::Rng rng(seed++);
    out.emplace_back("iscas_obf/" + bench.name,
                     data::obfuscate(bench.netlist, {}, rng).to_verilog());
  }
  for (const std::string& family : data::netlist_family_names()) {
    out.emplace_back("netlist/" + family,
                     data::build_netlist_family(family).to_verilog());
  }
  for (const data::RtlFamily& family : data::rtl_families()) {
    for (int style = 0; style < family.num_styles; ++style) {
      out.emplace_back("rtl/" + family.name + "/" + std::to_string(style),
                       family.generate({.style = style, .seed = 7}));
    }
  }
  return out;
}

}  // namespace gnn4ip::golden
