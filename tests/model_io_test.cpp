// Model persistence hardening: exact round-trips, magic/version
// rejection, and config-drift detection (malformed streams must throw,
// never silently mis-load).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "dfg/node_kind.h"
#include "gnn/featurize.h"
#include "gnn/model_io.h"

namespace gnn4ip::gnn {
namespace {

graph::Digraph probe_graph() {
  return graph::Digraph({{"out", static_cast<int>(dfg::NodeKind::kOutput)},
                         {"op", static_cast<int>(dfg::NodeKind::kAnd)},
                         {"a", static_cast<int>(dfg::NodeKind::kInput)},
                         {"b", static_cast<int>(dfg::NodeKind::kInput)}},
                        {{0, 1}, {1, 2}, {1, 3}});
}

std::string saved_model_text(Hw2Vec& model) {
  std::ostringstream os;
  save_model(os, model);
  return os.str();
}

/// Replace the first line of a saved stream.
std::string with_header(const std::string& text, const std::string& header) {
  const std::size_t eol = text.find('\n');
  return header + text.substr(eol);
}

TEST(ModelIo, RoundTripEmbeddingsAreBitIdentical) {
  Hw2VecConfig config;
  config.seed = 99;
  Hw2Vec model(config);
  const GraphTensors t = featurize(probe_graph());
  const tensor::Matrix before = model.embed_inference(t);

  std::stringstream buffer;
  save_model(buffer, model);
  Hw2Vec loaded = load_model(buffer);
  const tensor::Matrix after = loaded.embed_inference(t);
  // 9 significant digits round-trip float exactly, so the loaded model
  // must reproduce the embedding bit for bit, not just approximately.
  EXPECT_EQ(tensor::max_abs_diff(before, after), 0.0F);
}

TEST(ModelIo, HeaderCarriesMagicAndVersion) {
  Hw2Vec model;
  const std::string text = saved_model_text(model);
  const std::string expected = std::string(kModelMagic) + " v" +
                               std::to_string(kModelFormatVersion) + "\n";
  EXPECT_EQ(text.substr(0, expected.size()), expected);
}

TEST(ModelIo, DefaultModelTextPinned) {
  // The default model's config line (symmetrize column included) and
  // weights: a change to either re-keys every corpus snapshot, and
  // snapshots written by another fingerprint are refused on load.
  Hw2Vec model;
  EXPECT_EQ(model_fingerprint(model), "41572bdc26c14750");
}

TEST(ModelIo, RejectsUnsupportedSymmetrize) {
  Hw2Vec model;
  std::string text = saved_model_text(model);
  const std::size_t config = text.find("\nconfig ");
  ASSERT_NE(config, std::string::npos);
  const std::size_t eol = text.find('\n', config + 1);
  ASSERT_EQ(text.substr(eol - 2, 2), " 1");
  text[eol - 1] = '0';
  std::istringstream is(text);
  try {
    (void)load_model(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("symmetrize"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, RejectsMissingMagic) {
  Hw2Vec model;
  std::istringstream is(with_header(saved_model_text(model), "weights v2"));
  try {
    (void)load_model(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(ModelIo, RejectsMismatchedVersionWithClearError) {
  Hw2Vec model;
  for (const std::string bad : {"hw2vec-model v1", "hw2vec-model v99"}) {
    std::istringstream is(with_header(saved_model_text(model), bad));
    try {
      (void)load_model(is);
      FAIL() << "expected std::runtime_error for header: " << bad;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version"), std::string::npos) << what;
      EXPECT_NE(what.find("v2"), std::string::npos) << what;
    }
  }
}

TEST(ModelIo, RejectsParamCountDrift) {
  Hw2Vec model;
  std::string text = saved_model_text(model);
  const std::size_t pos = text.find("params 6");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "params 4");
  std::istringstream is(text);
  try {
    (void)load_model(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config drift"), std::string::npos);
  }
}

TEST(ModelIo, RejectsLayerShapeDrift) {
  // A stream whose config says hidden_dim 8 but whose first weight block
  // is the 16-wide one from a different model must throw, not read junk.
  Hw2VecConfig wide;
  wide.hidden_dim = 16;
  Hw2Vec model(wide);
  std::string text = saved_model_text(model);
  const std::size_t pos = text.find(" 16 ");  // hidden_dim in the config
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, " 8 ");
  std::istringstream is(text);
  try {
    (void)load_model(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config drift"), std::string::npos);
  }
}

TEST(ModelIo, RejectsTruncatedStream) {
  Hw2Vec model;
  std::string text = saved_model_text(model);
  // Drop the sentinel and the last weight row.
  const std::size_t end_pos = text.rfind("end\n");
  ASSERT_NE(end_pos, std::string::npos);
  const std::size_t cut = text.rfind('\n', end_pos - 2);
  std::istringstream is(text.substr(0, cut + 1));
  EXPECT_THROW((void)load_model(is), std::runtime_error);
}

TEST(ModelIo, RejectsMissingEndSentinel) {
  Hw2Vec model;
  std::string text = saved_model_text(model);
  const std::size_t end_pos = text.rfind("end\n");
  ASSERT_NE(end_pos, std::string::npos);
  std::istringstream is(text.substr(0, end_pos));
  try {
    (void)load_model(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sentinel"), std::string::npos);
  }
}

}  // namespace
}  // namespace gnn4ip::gnn
