// Input generation for the RTL-to-verdict benchmark.
//
// A workload is a pinned library plus an endless, deterministic stream
// of submissions: submission k is a pure function of (seed, k), and no
// source ever repeats (every submission draws a fresh variant or
// obfuscation seed). Inputs are generated before anything is timed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/netlist.h"

namespace perfbench {

/// One design handed to the service.
struct Design {
  std::string name;    // unique within a run
  std::string family;  // truth key: equal families are piracy pairs
  std::string source;  // Verilog text
  /// A source cut inside its last module: it must come back as a
  /// Diagnostic, never as a verdict.
  bool truncated = false;
};

/// Which trained model screens a workload.
enum class Corpus { kRtl, kNetlist };

class Workload {
 public:
  /// Throws std::invalid_argument for an unknown name. `smoke` shrinks
  /// the 10k library so every workload runs in seconds.
  Workload(const std::string& name, std::uint64_t seed, bool smoke);

  [[nodiscard]] const std::string& name() const { return name_; }
  /// The corpus lives in shard servers behind loopback TCP.
  [[nodiscard]] bool remote() const { return name_ == "remote_10k"; }
  /// netlist_obf judges by the Table III recognition rule: the best
  /// match must be the submission's own original.
  [[nodiscard]] bool own_original_rule() const { return corpus_ == Corpus::kNetlist; }
  /// Submissions per round of the traffic mix; every round has the same
  /// composition, so the latency distribution's shape is seed-free.
  [[nodiscard]] std::size_t cycle() const { return cycle_; }

  [[nodiscard]] const std::vector<Design>& library() const { return library_; }
  /// Library rows per family (the F1 denominator).
  [[nodiscard]] std::size_t library_count(const std::string& family) const;
  /// Family of a library entry by name; empty when unknown.
  [[nodiscard]] const std::string& family_of(const std::string& name) const;

  [[nodiscard]] Design submission(std::size_t k) const;

 private:
  [[nodiscard]] Design rtl_submission(std::size_t k) const;
  [[nodiscard]] Design netlist_submission(std::size_t k) const;
  [[nodiscard]] Design small_submission(std::size_t k) const;

  std::string name_;
  std::uint64_t seed_;
  Corpus corpus_ = Corpus::kRtl;
  std::size_t cycle_ = 1;
  std::vector<Design> library_;
  std::unordered_map<std::string, std::string> family_by_name_;
  std::unordered_map<std::string, std::size_t> count_by_family_;
  /// netlist_obf: the six ISCAS stand-ins and the structural family
  /// bases, built once; submissions obfuscate / restructure copies.
  std::vector<std::pair<std::string, gnn4ip::data::Netlist>> netlists_;
};

}  // namespace perfbench
