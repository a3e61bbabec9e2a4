// Weight (de)serialization for hw2vec models.
//
// Text format v2 (line oriented, locale-independent):
//   hw2vec-model v2                          (magic + format version)
//   config <input_dim> <hidden_dim> <num_layers> <pool_ratio> <readout>
//          <dropout> <symmetrize>           (symmetrize is always 1)
//   params <count>                           (must match the config)
//   param <rows> <cols>
//   <row values...>            (rows lines)
//   ... one param block per parameter, in Hw2Vec::parameters() order
//   end                                      (truncation sentinel)
//
// Values are written with 9 significant digits, enough to round-trip
// float exactly. load_model rejects streams whose magic is missing,
// whose version differs from kModelFormatVersion, whose symmetrize
// column is not 1, whose parameter count or shapes disagree with the
// config (config drift), or that end before the sentinel — each with a
// distinct std::runtime_error message.
#pragma once

#include <iosfwd>
#include <string>

#include "gnn/hw2vec.h"

namespace gnn4ip::gnn {

/// Magic token opening every model stream, followed by " v<version>".
inline constexpr const char* kModelMagic = "hw2vec-model";
/// Format version this build writes and reads.
inline constexpr int kModelFormatVersion = 2;

void save_model(std::ostream& os, Hw2Vec& model);
void save_model_file(const std::string& path, Hw2Vec& model);

/// Reconstructs the model (config + weights). Throws std::runtime_error
/// on malformed input, unsupported format versions, or config drift.
[[nodiscard]] Hw2Vec load_model(std::istream& is);
[[nodiscard]] Hw2Vec load_model_file(const std::string& path);

/// Deterministic fingerprint of a model's config + weights: FNV-1a over
/// the exact v2 serialization, as 16 lowercase hex digits. Two models
/// fingerprint equal iff they save_model() identically, so embeddings
/// (and every score derived from them) agree bit-for-bit — corpus
/// snapshots record this to refuse loading rows produced by a different
/// embedder (core/snapshot_format.h).
[[nodiscard]] std::string model_fingerprint(Hw2Vec& model);

}  // namespace gnn4ip::gnn
