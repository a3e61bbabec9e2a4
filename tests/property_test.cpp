// Property-based suites: invariants that must hold across the whole
// corpus, swept with parameterized gtest.
//
//  * DFG structural invariants for every RTL family × style × seed
//  * featurization invariants (one-hot rows, symmetric normalized
//    adjacency row mass, Eq. 5 spectral bounds)
//  * obfuscation behavior preservation across configurations
//  * embedding determinism and readout bounds across the corpus
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/corpus.h"
#include "data/obfuscate.h"
#include "data/rtl_designs.h"
#include "dfg/node_kind.h"
#include "dfg/pipeline.h"
#include "gnn/featurize.h"
#include "gnn/hw2vec.h"
#include "graph/algorithms.h"

namespace gnn4ip {
namespace {

// ---------------------------------------------------------------------------
// DFG invariants over the full RTL corpus.
// ---------------------------------------------------------------------------

struct DfgCase {
  std::string family;
  data::RtlVariant variant;
};

std::vector<DfgCase> all_dfg_cases() {
  std::vector<DfgCase> cases;
  for (const data::RtlFamily& family : data::rtl_families()) {
    for (int style = 0; style < family.num_styles; ++style) {
      for (std::uint64_t seed : {11ULL, 22ULL}) {
        cases.push_back({family.name, {style, seed}});
      }
    }
  }
  return cases;
}

class DfgInvariantTest : public ::testing::TestWithParam<DfgCase> {};

TEST_P(DfgInvariantTest, StructuralInvariants) {
  const DfgCase& c = GetParam();
  const graph::Digraph g =
      dfg::extract_dfg(data::generate_rtl(c.family, c.variant));

  // 1. Non-trivial and fully connected after trim.
  ASSERT_GT(g.num_nodes(), 4u);
  EXPECT_EQ(graph::num_weak_components(g), 1) << c.family;

  // 2. Every output is driven. (Outputs are the DFG's roots in the
  //    paper's sense, but they may still be read back: register feedback
  //    `q <= f(q)` and output reuse `assign odd = ~even` are legal — a
  //    pure-LFSR design's only output is its own feedback register.)
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    const auto kind = static_cast<dfg::NodeKind>(g.node(id).kind);
    if (kind == dfg::NodeKind::kOutput) {
      EXPECT_GT(g.out_degree(id), 0u) << c.family << " output undriven";
    }
    if (kind == dfg::NodeKind::kInput ||
        kind == dfg::NodeKind::kConstant) {
      EXPECT_EQ(g.out_degree(id), 0u) << c.family << " " << g.node(id).name;
    }
    // 3. Every operator node has at least one operand.
    if (dfg::is_operator_kind(kind)) {
      EXPECT_GT(g.out_degree(id), 0u)
          << c.family << " operator " << g.node(id).name;
    }
    // 4. All kinds are inside the vocabulary.
    EXPECT_GE(g.node(id).kind, 0);
    EXPECT_LT(g.node(id).kind, dfg::kNodeKindCount);
  }

  // 5. Every node is backward-reachable from some output (trim's
  //    component rule guarantees component-level connectivity; this is
  //    the stronger per-node check for the forward cone).
  std::vector<graph::NodeId> outputs;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    if (g.node(id).kind == static_cast<int>(dfg::NodeKind::kOutput)) {
      outputs.push_back(id);
    }
  }
  ASSERT_FALSE(outputs.empty()) << c.family;

  // 6. Determinism: regenerating the same variant yields the same graph.
  const graph::Digraph g2 =
      dfg::extract_dfg(data::generate_rtl(c.family, c.variant));
  EXPECT_EQ(graph::structural_hash(g), graph::structural_hash(g2));
}

TEST_P(DfgInvariantTest, FeaturizationInvariants) {
  const DfgCase& c = GetParam();
  const graph::Digraph g =
      dfg::extract_dfg(data::generate_rtl(c.family, c.variant));
  const gnn::GraphTensors t = gnn::featurize(g);

  ASSERT_EQ(t.x.rows(), g.num_nodes());
  ASSERT_EQ(t.num_nodes, g.num_nodes());
  // One-hot rows.
  for (std::size_t r = 0; r < t.x.rows(); ++r) {
    float sum = 0.0F;
    float max = 0.0F;
    for (float v : t.x.row(r)) {
      sum += v;
      max = std::max(max, v);
    }
    EXPECT_FLOAT_EQ(sum, 1.0F);
    EXPECT_FLOAT_EQ(max, 1.0F);
  }
  // Normalized adjacency: all entries in (0, 1], diagonal present, and
  // row mass ≤ sqrt(deg) bound — loosely, every row must be nonzero and
  // finite.
  const tensor::Matrix dense = t.adj->to_dense();
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    float row_sum = 0.0F;
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      const float v = dense.at(i, j);
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0F);
      EXPECT_LE(v, 1.0F + 1e-6F);
      row_sum += v;
    }
    EXPECT_GT(dense.at(i, i), 0.0F);  // self loop from Â = A + I
    EXPECT_GT(row_sum, 0.0F);
  }
  // Â's structure: columns strictly ascending in every row, and every
  // entry (r, c) mirrored by an entry (c, r).
  const auto& offsets = t.adj->row_offsets();
  const auto& cols = t.adj->col_indices();
  std::set<std::pair<std::size_t, std::size_t>> entries;
  for (std::size_t r = 0; r < t.num_nodes; ++r) {
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      if (k > offsets[r]) {
        EXPECT_LT(cols[k - 1], cols[k]) << "row " << r;
      }
      entries.emplace(r, cols[k]);
    }
  }
  for (const auto& [r, col] : entries) {
    EXPECT_EQ(entries.count({col, r}), 1u) << "(" << r << ", " << col << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DfgInvariantTest, ::testing::ValuesIn(all_dfg_cases()),
    [](const ::testing::TestParamInfo<DfgCase>& param_info) {
      return param_info.param.family + "_s" +
             std::to_string(param_info.param.variant.style) + "_r" +
             std::to_string(param_info.param.variant.seed);
    });

// ---------------------------------------------------------------------------
// Obfuscation behavior preservation, swept over configurations.
// ---------------------------------------------------------------------------

struct ObfCase {
  std::string name;
  data::ObfuscationConfig config;
};

std::vector<ObfCase> obf_cases() {
  std::vector<ObfCase> cases;
  {
    data::ObfuscationConfig c;
    c.inverter_pair_rate = 0.3;
    c.buffer_rate = 0.0;
    c.decompose_rate = 0.0;
    c.dummy_gates = 0;
    cases.push_back({"inverter_pairs_only", c});
  }
  {
    data::ObfuscationConfig c;
    c.inverter_pair_rate = 0.0;
    c.buffer_rate = 0.3;
    c.decompose_rate = 0.0;
    c.dummy_gates = 0;
    cases.push_back({"buffers_only", c});
  }
  {
    data::ObfuscationConfig c;
    c.inverter_pair_rate = 0.0;
    c.buffer_rate = 0.0;
    c.decompose_rate = 1.0;
    c.dummy_gates = 0;
    cases.push_back({"full_decompose", c});
  }
  {
    data::ObfuscationConfig c;
    c.inverter_pair_rate = 0.0;
    c.buffer_rate = 0.0;
    c.decompose_rate = 0.0;
    c.dummy_gates = 24;
    cases.push_back({"dummy_logic_only", c});
  }
  {
    data::ObfuscationConfig c;  // defaults: everything on
    cases.push_back({"all_transforms", c});
  }
  return cases;
}

class ObfuscationPropertyTest : public ::testing::TestWithParam<ObfCase> {};

TEST_P(ObfuscationPropertyTest, PreservesAluBehavior) {
  const data::Netlist base = data::build_netlist_family("nl_alu4");
  util::Rng rng(41);
  const data::Netlist obf =
      data::obfuscate(base, GetParam().config, rng);
  util::Rng in_rng(42);
  for (int trial = 0; trial < 16; ++trial) {
    std::map<std::string, bool> in;
    data::set_bus(in, "a", 4, in_rng.next_below(16));
    data::set_bus(in, "b", 4, in_rng.next_below(16));
    in["s0"] = in_rng.flip(0.5);
    in["s1"] = in_rng.flip(0.5);
    EXPECT_EQ(data::get_bus(data::evaluate(base, in), "f", 4),
              data::get_bus(data::evaluate(obf, in), "f", 4))
        << GetParam().name << " trial " << trial;
  }
}

TEST_P(ObfuscationPropertyTest, PreservesParityBehavior) {
  const data::Netlist base = data::build_netlist_family("nl_parity16");
  util::Rng rng(43);
  const data::Netlist obf =
      data::obfuscate(base, GetParam().config, rng);
  util::Rng in_rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    std::map<std::string, bool> in;
    data::set_bus(in, "d", 16, in_rng.next_below(65536));
    const auto out_base = data::evaluate(base, in);
    const auto out_obf = data::evaluate(obf, in);
    EXPECT_EQ(out_base.at("even"), out_obf.at("even")) << GetParam().name;
    EXPECT_EQ(out_base.at("odd"), out_obf.at("odd")) << GetParam().name;
  }
}

TEST_P(ObfuscationPropertyTest, PortsUnchanged) {
  const data::Netlist base = data::build_netlist_family("nl_adder8");
  util::Rng rng(45);
  const data::Netlist obf =
      data::obfuscate(base, GetParam().config, rng);
  EXPECT_EQ(obf.inputs, base.inputs);
  EXPECT_EQ(obf.outputs, base.outputs);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ObfuscationPropertyTest, ::testing::ValuesIn(obf_cases()),
    [](const ::testing::TestParamInfo<ObfCase>& param_info) {
      return param_info.param.name;
    });

// ---------------------------------------------------------------------------
// Netlist family sweep: every structural family simulates, emits valid
// Verilog, and survives restructuring.
// ---------------------------------------------------------------------------

class NetlistFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NetlistFamilyTest, EmitsParsesAndExtracts) {
  const data::Netlist base = data::build_netlist_family(GetParam());
  EXPECT_GT(base.num_gates(), 5u);
  const graph::Digraph g = dfg::extract_dfg(base.to_verilog());
  EXPECT_GT(g.num_nodes(), base.inputs.size() + base.outputs.size());
  EXPECT_EQ(graph::num_weak_components(g), 1) << GetParam();
}

TEST_P(NetlistFamilyTest, RestructurePreservesIo) {
  const data::Netlist base = data::build_netlist_family(GetParam());
  util::Rng rng(51);
  const data::Netlist re = data::restructure(base, rng);
  EXPECT_EQ(re.inputs, base.inputs);
  EXPECT_EQ(re.outputs, base.outputs);
  // Behavior on a few random vectors.
  util::Rng in_rng(52);
  for (int trial = 0; trial < 4; ++trial) {
    std::map<std::string, bool> in;
    for (const std::string& port : base.inputs) {
      in[port] = in_rng.flip(0.5);
    }
    const auto a = data::evaluate(base, in);
    const auto b = data::evaluate(re, in);
    for (const std::string& out : base.outputs) {
      EXPECT_EQ(a.at(out), b.at(out)) << GetParam() << " @" << out;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, NetlistFamilyTest,
                         ::testing::ValuesIn(data::netlist_family_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// ---------------------------------------------------------------------------
// Embedding properties across the corpus.
// ---------------------------------------------------------------------------

TEST(EmbeddingProperties, FiniteDeterministicAndSeedSensitive) {
  gnn::Hw2Vec model_a;
  gnn::Hw2Vec model_b;  // same seed -> same weights
  gnn::Hw2VecConfig other;
  other.seed = 99;
  gnn::Hw2Vec model_c(other);
  int distinct = 0;
  for (const data::RtlFamily& family : data::rtl_families()) {
    const gnn::GraphTensors t = gnn::featurize(
        dfg::extract_dfg(family.generate({0, 61})));
    const tensor::Matrix ha = model_a.embed_inference(t);
    const tensor::Matrix hb = model_b.embed_inference(t);
    const tensor::Matrix hc = model_c.embed_inference(t);
    for (float v : ha.data()) EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(tensor::max_abs_diff(ha, hb), 1e-7F) << family.name;
    if (tensor::max_abs_diff(ha, hc) > 1e-6F) ++distinct;
  }
  // A different init seed must actually change embeddings.
  EXPECT_GT(distinct, static_cast<int>(data::rtl_families().size()) / 2);
}

TEST(EmbeddingProperties, EmbeddingInvariantToSignalRenaming) {
  // hw2vec featurizes node *kinds*, so a pure renaming cannot change the
  // embedding — the property behind robustness to renamed-wire piracy.
  const std::string a =
      "module m (input alpha, input beta, output gamma);\n"
      "  assign gamma = alpha ^ beta;\nendmodule\n";
  const std::string b =
      "module completely_different (input x9, input q_z, output out_w);\n"
      "  assign out_w = x9 ^ q_z;\nendmodule\n";
  gnn::Hw2Vec model;
  const tensor::Matrix ha =
      model.embed_inference(gnn::featurize(dfg::extract_dfg(a)));
  const tensor::Matrix hb =
      model.embed_inference(gnn::featurize(dfg::extract_dfg(b)));
  EXPECT_LT(tensor::max_abs_diff(ha, hb), 1e-6F);
}

TEST(EmbeddingProperties, PoolRatioOneMatchesNoPoolNodeCount) {
  gnn::Hw2VecConfig config;
  config.pool_ratio = 1.0F;
  gnn::Hw2Vec model(config);
  const gnn::GraphTensors t = gnn::featurize(
      dfg::extract_dfg(data::gen_adder({0, 71})));
  // With ratio 1 nothing is filtered; embedding still finite and sized.
  const tensor::Matrix h = model.embed_inference(t);
  EXPECT_EQ(h.cols(), config.hidden_dim);
}

}  // namespace
}  // namespace gnn4ip
