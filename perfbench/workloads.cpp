#include "workloads.h"

#include <cctype>
#include <stdexcept>

#include "data/corpus.h"
#include "data/iscas.h"
#include "data/obfuscate.h"
#include "data/rtl_designs.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using gnn4ip::util::Rng;

// Independent generator streams, so the library and the submissions
// never share a variant seed. The library is the same for every seed:
// a deployment's pinned IP does not change with its traffic, and a fixed
// library keeps setup and detection quality comparable across seeds.
constexpr std::uint64_t kLibrarySeed = 0x4c4942;       // "LIB"
constexpr std::uint64_t kLibraryStream = 0x4c4942;
constexpr std::uint64_t kSubmissionStream = 0x535542;  // "SUB"

/// Pinned instances per library family on rtl_mix (~100 rows in all).
constexpr std::size_t kRtlLibraryInstances = 6;
constexpr std::size_t kLibrary10k = 10'000;
constexpr std::size_t kLibrarySmoke = 600;

/// library_10k traffic: the cheapest front ends (tens of nodes each),
/// so the per-commit path dominates each audit.
const char* const kSmallFamilies[] = {
    "adder",          "counter",        "parity",          "lfsr",
    "shift_reg",      "pwm",            "gray_counter",    "multiplier",
    "barrel_shifter", "bcd_counter",    "johnson_counter", "clock_divider",
};
constexpr std::size_t kNumSmall = std::size(kSmallFamilies);

/// Rounds of netlist_obf traffic: one fresh obfuscation of each ISCAS
/// stand-in plus three restructured instances of each structural family.
constexpr std::size_t kNetlistRepeats = 3;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t k) {
  Rng rng(seed ^ (stream * 0x9E3779B97F4A7C15ULL) ^
          (k * 0xBF58476D1CE4E5B9ULL));
  return rng.next_u64();
}

const gnn4ip::data::RtlFamily& rtl_family(const std::string& name) {
  for (const gnn4ip::data::RtlFamily& f : gnn4ip::data::rtl_families()) {
    if (f.name == name) return f;
  }
  throw std::invalid_argument("unknown RTL family '" + name + "'");
}

std::string generate(const gnn4ip::data::RtlFamily& family,
                     std::uint64_t variant_seed) {
  Rng rng(variant_seed);
  gnn4ip::data::RtlVariant variant;
  variant.style = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(family.num_styles)));
  variant.seed = rng.next_u64();
  return family.generate(variant);
}

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Cut `source` strictly inside its last module (after the `module`
/// keyword, before `endmodule`), so the parser always reports it.
std::string truncate_last_module(const std::string& source, Rng& rng) {
  const std::size_t end = source.rfind("endmodule");
  std::size_t start = std::string::npos;
  for (std::size_t pos = source.find("module"); pos < end;
       pos = source.find("module", pos + 1)) {
    const bool word_start = pos == 0 || is_space(source[pos - 1]);
    const bool word_end = pos + 6 < source.size() && is_space(source[pos + 6]);
    if (word_start && word_end) start = pos + 6;
  }
  if (end == std::string::npos || start == std::string::npos || start >= end) {
    throw std::logic_error("truncate_last_module: no module body");
  }
  const std::size_t span = end - start;
  return source.substr(0, start + span / 4 + rng.next_below(span / 2 + 1));
}

}  // namespace

Workload::Workload(const std::string& name, std::uint64_t seed, bool smoke)
    : name_(name), seed_(seed) {
  const auto add_library = [this](std::string lib_name, std::string family,
                                  std::string source) {
    family_by_name_[lib_name] = family;
    ++count_by_family_[family];
    library_.push_back({std::move(lib_name), std::move(family),
                        std::move(source), false});
  };
  if (name == "rtl_mix") {
    // Every other registered family has pinned instances; the rest is
    // clean traffic. One round submits each family once, plus one
    // truncated source.
    const auto& families = gnn4ip::data::rtl_families();
    cycle_ = families.size() + 1;
    for (std::size_t f = 0; f < families.size(); f += 2) {
      for (std::size_t j = 0; j < kRtlLibraryInstances; ++j) {
        add_library("lib:" + families[f].name + "#" + std::to_string(j),
                    families[f].name,
                    generate(families[f],
                             derive(kLibrarySeed, kLibraryStream, f * 1000 + j)));
      }
    }
  } else if (name == "netlist_obf") {
    corpus_ = Corpus::kNetlist;
    for (gnn4ip::data::IscasBenchmark& bench :
         gnn4ip::data::iscas_benchmarks()) {
      netlists_.emplace_back(bench.name, std::move(bench.netlist));
    }
    for (const std::string& family : gnn4ip::data::netlist_family_names()) {
      netlists_.emplace_back(family,
                             gnn4ip::data::build_netlist_family(family));
    }
    cycle_ = 6 + (netlists_.size() - 6) * kNetlistRepeats;
    for (const auto& [family, netlist] : netlists_) {
      add_library(family, family, netlist.to_verilog());
    }
  } else if (name == "library_10k" || name == "remote_10k") {
    // Half of the small families are pinned, 10k rows between them; the
    // other half is clean traffic.
    cycle_ = kNumSmall;
    const std::size_t rows = smoke ? kLibrarySmoke : kLibrary10k;
    for (std::size_t j = 0; j < rows; ++j) {
      const std::string family = kSmallFamilies[2 * (j % (kNumSmall / 2))];
      add_library("lib:" + family + "#" + std::to_string(j), family,
                  generate(rtl_family(family),
                           derive(kLibrarySeed, kLibraryStream, j)));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
}

std::size_t Workload::library_count(const std::string& family) const {
  const auto it = count_by_family_.find(family);
  return it == count_by_family_.end() ? 0 : it->second;
}

const std::string& Workload::family_of(const std::string& name) const {
  static const std::string kNone;
  const auto it = family_by_name_.find(name);
  return it == family_by_name_.end() ? kNone : it->second;
}

Design Workload::submission(std::size_t k) const {
  if (corpus_ == Corpus::kNetlist) return netlist_submission(k);
  if (name_ == "rtl_mix") return rtl_submission(k);
  return small_submission(k);
}

Design Workload::rtl_submission(std::size_t k) const {
  const auto& families = gnn4ip::data::rtl_families();
  const std::size_t round = k / cycle_;
  const std::size_t slot = k % cycle_;
  const bool truncated = slot == families.size();
  const std::size_t f = truncated ? round % families.size() : slot;
  const std::uint64_t variant_seed = derive(seed_, kSubmissionStream, k);
  Design d;
  d.family = families[f].name;
  d.name = "sub:" + d.family + "#" + std::to_string(k);
  d.source = generate(families[f], variant_seed);
  if (truncated) {
    Rng rng(variant_seed ^ 0x7472756eULL);
    d.source = truncate_last_module(d.source, rng);
    d.truncated = true;
  }
  return d;
}

Design Workload::netlist_submission(std::size_t k) const {
  const std::size_t slot = k % cycle_;
  const std::size_t index =
      slot < 6 ? slot : 6 + (slot - 6) % (netlists_.size() - 6);
  const auto& [family, netlist] = netlists_[index];
  Rng rng(derive(seed_, kSubmissionStream, k));
  Design d;
  d.family = family;
  d.name = "sub:" + family + "#" + std::to_string(k);
  d.source = index < 6
                 ? gnn4ip::data::obfuscate(netlist, {}, rng).to_verilog()
                 : gnn4ip::data::restructure(netlist, rng).to_verilog();
  return d;
}

Design Workload::small_submission(std::size_t k) const {
  const std::string family = kSmallFamilies[k % kNumSmall];
  Design d;
  d.family = family;
  d.name = "sub:" + family + "#" + std::to_string(k);
  d.source = generate(rtl_family(family), derive(seed_, kSubmissionStream, k));
  return d;
}

}  // namespace perfbench
