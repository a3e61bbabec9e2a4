// End-to-end integration tests over the public facade: train a small
// detector on a reduced corpus and check the paper-level behaviors
// (piracy detection, obfuscation resilience, subset scoring).
#include <gtest/gtest.h>

#include <ios>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "data/rtl_designs.h"
#include "gnn/model_io.h"

namespace gnn4ip {
namespace {

/// Small RTL corpus + trained detector shared by the expensive tests.
class TrainedDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::RtlCorpusOptions corpus_options;
    corpus_options.instances_per_family = 4;
    corpus_options.families = {"adder",  "alu",        "counter",
                               "crc8",   "multiplier", "parity",
                               "lfsr",   "gray_counter"};
    corpus_options.seed = 31;
    const auto items = data::build_rtl_corpus(corpus_options);
    detector_ = new PiracyDetector();
    train::TrainConfig tc;
    tc.epochs = 30;
    tc.batch_graphs = 16;
    tc.learning_rate = 5e-3F;
    tc.seed = 33;
    eval_ = new train::EvalResult(
        detector_->train_on(make_graph_entries(items), tc));
  }

  static void TearDownTestSuite() {
    delete eval_;
    delete detector_;
    eval_ = nullptr;
    detector_ = nullptr;
  }

  static PiracyDetector* detector_;
  static train::EvalResult* eval_;
};

PiracyDetector* TrainedDetectorTest::detector_ = nullptr;
train::EvalResult* TrainedDetectorTest::eval_ = nullptr;

TEST_F(TrainedDetectorTest, HeldOutAccuracyHigh) {
  EXPECT_GT(eval_->confusion.accuracy(), 0.8)
      << eval_->confusion.to_string();
}

TEST_F(TrainedDetectorTest, SameFamilyUnseenVariantsScoreHigh) {
  // Unseen seeds of a trained family: piracy must be flagged. (crc8's
  // styles share an XOR-network topology; the adder family's extreme
  // behavioral-vs-gate-level split needs paper-scale training and is
  // exercised by the Table II bench instead.)
  const std::string a = data::gen_crc8({0, 901});
  const std::string b = data::gen_crc8({1, 902});
  const Verdict v = detector_->check(a, b);
  EXPECT_GT(v.similarity, 0.0F);
}

TEST_F(TrainedDetectorTest, CrossFamilyScoresLowerThanSameFamilyOnAverage) {
  // Averaged over several unseen variants; single pairs can be noisy for
  // a model this small (the full benches train at paper scale).
  double same_sum = 0.0;
  double cross_sum = 0.0;
  int count = 0;
  for (std::uint64_t s = 941; s < 944; ++s) {
    const std::string crc_a = data::gen_crc8({0, s});
    const std::string crc_b = data::gen_crc8({1, s + 50});
    const std::string lfsr = data::gen_lfsr({0, s + 100});
    same_sum += detector_->similarity(crc_a, crc_b);
    cross_sum += detector_->similarity(crc_a, lfsr);
    ++count;
  }
  EXPECT_GT(same_sum / count, cross_sum / count);
}

TEST_F(TrainedDetectorTest, DeltaTunedWithinRange) {
  EXPECT_GT(eval_->delta, -1.0F);
  EXPECT_LT(eval_->delta, 1.0F);
  EXPECT_FLOAT_EQ(detector_->delta(), eval_->delta);
}

TEST_F(TrainedDetectorTest, SaveLoadKeepsBehavior) {
  const std::string path = ::testing::TempDir() + "/gnn4ip_model.txt";
  detector_->save(path);
  PiracyDetector loaded;
  loaded.load(path);
  const std::string a = data::gen_crc8({0, 921});
  const std::string b = data::gen_crc8({1, 922});
  EXPECT_NEAR(loaded.similarity(a, b), detector_->similarity(a, b), 1e-4F);
}

TEST(Facade, MakeGraphEntryLabels) {
  data::CorpusItem item;
  item.name = "x#0";
  item.design = "x";
  item.kind = "rtl";
  item.verilog =
      "module x (input a, output y);\n  assign y = ~a;\nendmodule\n";
  const train::GraphEntry entry = make_graph_entry(item);
  EXPECT_EQ(entry.name, "x#0");
  EXPECT_EQ(entry.design, "x");
  EXPECT_GT(entry.tensors.num_nodes, 0u);
}

TEST(Facade, MalformedVerilogPropagatesParseError) {
  data::CorpusItem item;
  item.verilog = "module broken (";
  EXPECT_THROW(make_graph_entry(item), verilog::ParseError);
}

TEST(Facade, UntrainedDetectorStillProducesScores) {
  PiracyDetector detector;
  const float s = detector.similarity(
      "module a (input x, output y);\n  assign y = ~x;\nendmodule\n",
      "module b (input p, output q);\n  assign q = ~p;\nendmodule\n");
  EXPECT_GE(s, -1.0F);
  EXPECT_LE(s, 1.0F);
  // Identical structure, different names: identical embedding.
  EXPECT_NEAR(s, 1.0F, 1e-5F);
}

TEST(Facade, SimilarityEqualsTheServiceScoreBitForBit) {
  // PiracyDetector::similarity and the corpus sweep behind AuditService
  // finish the same cosine cell, so a pair scores the same bits on both
  // paths (EXPECT_EQ on floats is exact).
  PiracyDetector detector;
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {data::gen_crc8({0, 11}), data::gen_lfsr({0, 12})},
      {data::gen_adder({0, 13}), data::gen_alu({1, 14})},
      {data::gen_counter({1, 15}), data::gen_gray_counter({0, 16})},
      {data::gen_parity({0, 17}), data::gen_multiplier({1, 18})},
      {data::gen_uart_tx({0, 19}), data::gen_fifo_ctrl({1, 20})},
      {data::gen_shift_reg({1, 21}), data::gen_pwm({0, 22})},
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    audit::AuditService service(detector.model());
    ASSERT_TRUE(service.add_library("b", b).accepted) << "pair " << i;
    ASSERT_TRUE(service.submit("a", a));
    const std::vector<audit::ScreenReport> reports = service.screen();
    ASSERT_EQ(reports.size(), 1u);
    ASSERT_TRUE(reports[0].best.has_value()) << "pair " << i;
    const float direct = detector.similarity(a, b);
    const float served = reports[0].best->similarity;
    EXPECT_EQ(direct, served)
        << "pair " << i << ": " << std::hexfloat << direct << " vs " << served;
  }
}

TEST(Facade, CheckAppliesDelta) {
  PiracyDetector detector;
  detector.set_delta(0.99F);
  const std::string a =
      "module a (input x, input z, output y);\n  assign y = x & z;\n"
      "endmodule\n";
  const std::string b =
      "module b (input p, output q);\n  assign q = ~p;\nendmodule\n";
  const Verdict v = detector.check(a, b);
  EXPECT_EQ(v.is_piracy, v.similarity > 0.99F);
}

}  // namespace
}  // namespace gnn4ip
