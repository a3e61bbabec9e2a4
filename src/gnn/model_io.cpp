#include "gnn/model_io.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace gnn4ip::gnn {
namespace {

/// The config line's seventh column. featurize always symmetrizes; the
/// column stays so every model's text and fingerprint are unchanged.
constexpr int kSymmetrizeColumn = 1;

[[noreturn]] void malformed(const std::string& detail) {
  throw std::runtime_error("malformed hw2vec-model stream: " + detail);
}

}  // namespace

void save_model(std::ostream& os, Hw2Vec& model) {
  // Float round-trips exactly at 9 significant digits; restore the
  // caller's precision afterwards.
  const std::streamsize saved_precision = os.precision(9);
  const Hw2VecConfig& c = model.config();
  os << kModelMagic << " v" << kModelFormatVersion << '\n';
  os << "config " << c.input_dim << ' ' << c.hidden_dim << ' '
     << c.num_layers << ' ' << c.pool_ratio << ' ' << to_string(c.readout)
     << ' ' << c.dropout << ' ' << kSymmetrizeColumn << '\n';
  const std::vector<tensor::Parameter*> params = model.parameters();
  os << "params " << params.size() << '\n';
  for (tensor::Parameter* p : params) {
    os << "param " << p->value.rows() << ' ' << p->value.cols() << '\n';
    for (std::size_t r = 0; r < p->value.rows(); ++r) {
      const auto row = p->value.row(r);
      for (std::size_t cidx = 0; cidx < row.size(); ++cidx) {
        if (cidx != 0) os << ' ';
        os << row[cidx];
      }
      os << '\n';
    }
  }
  os << "end\n";
  os.precision(saved_precision);
}

void save_model_file(const std::string& path, Hw2Vec& model) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  save_model(os, model);
}

Hw2Vec load_model(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) malformed("empty stream");
  {
    std::istringstream ls(line);
    std::string magic;
    std::string version;
    ls >> magic >> version;
    if (magic != kModelMagic) {
      malformed("missing '" + std::string(kModelMagic) +
                "' magic header (not a model stream?)");
    }
    const std::string expected = "v" + std::to_string(kModelFormatVersion);
    if (version != expected) {
      malformed("unsupported format version '" + version +
                "'; this build reads " + expected);
    }
  }
  if (!std::getline(is, line)) malformed("missing config");
  Hw2VecConfig config;
  {
    std::istringstream ls(line);
    std::string tag;
    std::string readout_name;
    int symmetrize = 1;
    if (!(ls >> tag >> config.input_dim >> config.hidden_dim >>
          config.num_layers >> config.pool_ratio >> readout_name >>
          config.dropout >> symmetrize) ||
        tag != "config") {
      malformed("bad config line");
    }
    if (symmetrize != kSymmetrizeColumn) {
      malformed("<symmetrize> column is " + std::to_string(symmetrize) +
                ", not 1: featurize always symmetrizes");
    }
    config.readout = readout_from_string(readout_name);
  }
  Hw2Vec model(config);
  const std::vector<tensor::Parameter*> params = model.parameters();
  {
    if (!std::getline(is, line)) malformed("missing params count");
    std::istringstream ls(line);
    std::string tag;
    std::size_t declared = 0;
    if (!(ls >> tag >> declared) || tag != "params") {
      malformed("bad params line");
    }
    if (declared != params.size()) {
      malformed("stream declares " + std::to_string(declared) +
                " parameter blocks but the config implies " +
                std::to_string(params.size()) + " (config drift?)");
    }
  }
  for (tensor::Parameter* p : params) {
    if (!std::getline(is, line)) malformed("missing param block");
    std::istringstream ls(line);
    std::string tag;
    std::size_t rows = 0;
    std::size_t cols = 0;
    if (!(ls >> tag >> rows >> cols) || tag != "param") {
      malformed("bad param line");
    }
    if (rows != p->value.rows() || cols != p->value.cols()) {
      malformed("param shape " + std::to_string(rows) + "x" +
                std::to_string(cols) + " does not match the config's " +
                p->value.shape_string() + " (config drift?)");
    }
    for (std::size_t r = 0; r < rows; ++r) {
      if (!std::getline(is, line)) malformed("truncated param rows");
      std::istringstream vs(line);
      auto row = p->value.row(r);
      for (std::size_t c = 0; c < cols; ++c) {
        if (!(vs >> row[c])) malformed("truncated param row");
      }
    }
  }
  if (!std::getline(is, line) || line != "end") {
    malformed("missing 'end' sentinel (truncated stream?)");
  }
  return model;
}

Hw2Vec load_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  return load_model(is);
}

std::string model_fingerprint(Hw2Vec& model) {
  // Hash the exact v2 text serialization: it already pins the config
  // and every weight to 9 significant digits (the exact-float
  // round-trip), so equal fingerprints mean bit-equal embeddings.
  std::ostringstream os;
  save_model(os, model);
  const std::string bytes = os.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, 64-bit
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    hex[15 - i] = kHex[h & 0xF];
    h >>= 4;
  }
  return hex;
}

}  // namespace gnn4ip::gnn
