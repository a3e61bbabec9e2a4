#include "core/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>

#include "core/cosine_kernels.h"
#include "core/snapshot_format.h"
#include "util/contract.h"

namespace gnn4ip::core {

std::size_t EmbeddingStore::add(std::string name,
                                const tensor::Matrix& embedding) {
  GNN4IP_ENSURE(!embedding.empty(), "EmbeddingStore: empty embedding");
  if (dim_ == 0) {
    dim_ = embedding.size();
  } else {
    GNN4IP_ENSURE(embedding.size() == dim_,
                  "EmbeddingStore: embedding dim " +
                      std::to_string(embedding.size()) + " != corpus dim " +
                      std::to_string(dim_));
  }
  const std::span<const float> flat = embedding.data();
  const std::size_t i = names_.size();
  if (i % kTileRows == 0) data_.resize(data_.size() + kTileRows * dim_, 0.0F);
  for (std::size_t k = 0; k < dim_; ++k) data_[at(i, k)] = flat[k];
  norms_.push_back(row_norm(flat));
  names_.push_back(std::move(name));
  dead_.push_back(false);
  ++live_count_;
  return names_.size() - 1;
}

float EmbeddingStore::norm(std::size_t i) const {
  GNN4IP_ENSURE(i < norms_.size(), "EmbeddingStore: index out of range");
  return norms_[i];
}

const std::string& EmbeddingStore::name(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: index out of range");
  return names_[i];
}

std::vector<float> EmbeddingStore::row(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: row index out of range");
  std::vector<float> out(dim_);
  for (std::size_t k = 0; k < dim_; ++k) out[k] = data_[at(i, k)];
  return out;
}

void EmbeddingStore::remove(std::size_t i) {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: remove out of range");
  GNN4IP_ENSURE(!dead_[i], "EmbeddingStore: row already removed");
  dead_[i] = true;
  --live_count_;
  first_removed_ = std::min(first_removed_, i);
}

bool EmbeddingStore::live(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: index out of range");
  return !dead_[i];
}

std::vector<std::size_t> EmbeddingStore::compact() {
  const std::size_t first = std::min(first_removed_, names_.size());
  std::vector<std::size_t> mapping(names_.size());
  std::iota(mapping.begin(),
            mapping.begin() + static_cast<std::ptrdiff_t>(first),
            std::size_t{0});
  std::size_t next = first;
  for (std::size_t i = first; i < names_.size(); ++i) {
    if (dead_[i]) {
      mapping[i] = kNoIndex;
      continue;
    }
    mapping[i] = next;
    if (next != i) {
      names_[next] = std::move(names_[i]);
      for (std::size_t k = 0; k < dim_; ++k) {
        data_[at(next, k)] = data_[at(i, k)];
      }
      norms_[next] = norms_[i];
    }
    ++next;
  }
  // resize keeps the capacity, so the next add() appends in place. The
  // last tile's freed lanes go back to 0.
  const std::size_t tiles = (next + kTileRows - 1) / kTileRows;
  for (std::size_t i = next; i < tiles * kTileRows; ++i) {
    for (std::size_t k = 0; k < dim_; ++k) data_[at(i, k)] = 0.0F;
  }
  names_.resize(next);
  data_.resize(tiles * kTileRows * dim_);
  norms_.resize(next);
  std::fill(dead_.begin() + static_cast<std::ptrdiff_t>(first),
            dead_.begin() + static_cast<std::ptrdiff_t>(next), false);
  dead_.resize(next);
  live_count_ = next;
  first_removed_ = kNoIndex;
  return mapping;
}

namespace {

/// Names past this length are treated as corruption: a flipped bit in
/// a length prefix must not turn into a multi-gigabyte allocation.
constexpr std::uint64_t kMaxNameLength = 1u << 20;

}  // namespace

void EmbeddingStore::save(std::ostream& os) const {
  // Fixed-offset header (docs/FORMATS.md): magic, version, byte-order
  // mark, dim, row count, live count — then the row-major float block
  // starts at byte 40, 8-byte-aligned.
  write_bytes(os, kShardMagic, sizeof(kShardMagic));
  write_u32(os, kShardFormatVersion);
  write_u32(os, kByteOrderMark);
  write_u64(os, dim_);
  write_u64(os, names_.size());
  write_u64(os, live_count_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::vector<float> r = row(i);
    write_bytes(os, r.data(), r.size() * sizeof(float));
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::uint8_t flag = dead_[i] ? 0 : 1;
    write_bytes(os, &flag, 1);
  }
  for (const std::string& name : names_) {
    write_u64(os, name.size());
    write_bytes(os, name.data(), name.size());
  }
}

EmbeddingStore EmbeddingStore::load(std::istream& is,
                                    std::size_t expected_dim) {
  char magic[sizeof(kShardMagic)] = {};
  read_bytes(is, magic, sizeof(magic), "shard magic");
  if (std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw SnapshotMagicError(
        "not a gnn4ip shard file (missing G4IPSHRD magic)");
  }
  const std::uint32_t version = read_u32(is, "shard format version");
  if (version != kShardFormatVersion) {
    throw SnapshotVersionError(
        "unsupported shard format version " + std::to_string(version) +
        "; this build reads v" + std::to_string(kShardFormatVersion));
  }
  const std::uint32_t bom = read_u32(is, "shard byte-order mark");
  if (bom != kByteOrderMark) {
    throw SnapshotByteOrderError(
        "shard file was written on a host with a different byte order");
  }
  const std::uint64_t dim = read_u64(is, "shard dim");
  const std::uint64_t rows = read_u64(is, "shard row count");
  const std::uint64_t live = read_u64(is, "shard live count");
  if (expected_dim != 0 && rows != 0 && dim != expected_dim) {
    throw SnapshotDimError("shard dim " + std::to_string(dim) +
                           " does not match the expected dim " +
                           std::to_string(expected_dim) + " (dim drift)");
  }
  if (live > rows || (rows != 0 && dim == 0)) {
    throw SnapshotManifestError(
        "shard header is inconsistent (live count " + std::to_string(live) +
        " of " + std::to_string(rows) + " rows, dim " + std::to_string(dim) +
        ")");
  }
  EmbeddingStore store;
  store.dim_ = dim;
  // The file is row-major: read one row at a time into its tile lane,
  // so the load never holds the block twice. Norms are derived, not
  // stored: recomputing them from the exact float bytes reproduces the
  // saved store's cached values bit for bit.
  store.data_.resize((rows + kTileRows - 1) / kTileRows * kTileRows * dim);
  store.norms_.resize(rows);
  std::vector<float> r(rows == 0 ? 0 : dim);  // dim is unchecked at 0 rows
  for (std::uint64_t i = 0; i < rows; ++i) {
    read_bytes(is, r.data(), r.size() * sizeof(float), "shard row block");
    for (std::size_t k = 0; k < dim; ++k) store.data_[store.at(i, k)] = r[k];
    store.norms_[i] = row_norm(r);
  }
  store.dead_.resize(rows);
  std::size_t counted_live = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint8_t flag = 0;
    read_bytes(is, &flag, 1, "shard live flags");
    store.dead_[i] = flag == 0;
    counted_live += flag != 0 ? 1 : 0;
    if (flag == 0) store.first_removed_ = std::min(store.first_removed_, i);
  }
  if (counted_live != live) {
    throw SnapshotManifestError(
        "shard header declares " + std::to_string(live) +
        " live rows but the flags mark " + std::to_string(counted_live));
  }
  store.live_count_ = counted_live;
  store.names_.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t length = read_u64(is, "shard name length");
    if (length > kMaxNameLength) {
      throw SnapshotTruncatedError(
          "implausible name length " + std::to_string(length) +
          " in shard name table (corrupt file)");
    }
    std::string name(length, '\0');
    read_bytes(is, name.data(), length, "shard name table");
    store.names_.push_back(std::move(name));
  }
  // Files written by earlier builds end in a QNT8 trailer: per-row int8
  // quantization scales, then the int8 rows. Those bytes fed only a
  // since-removed prefilter, so once the tag and the exact length check
  // out the trailer is skipped unread. Anything else after the name
  // table is trailing garbage.
  char tag[sizeof(kLegacyQuantTag)] = {};
  is.read(tag, sizeof(tag));
  if (is.gcount() == 0 && is.eof()) return store;
  if (is.gcount() != static_cast<std::streamsize>(sizeof(tag)) ||
      std::memcmp(tag, kLegacyQuantTag, sizeof(tag)) != 0) {
    throw SnapshotTruncatedError(
        "shard file carries trailing bytes after the name table that are "
        "not a legacy QNT8 trailer");
  }
  const std::uint64_t trailer = rows * (sizeof(float) + dim);
  is.ignore(static_cast<std::streamsize>(trailer));
  if (static_cast<std::uint64_t>(is.gcount()) != trailer) {
    throw SnapshotTruncatedError(
        "snapshot stream truncated while skipping the legacy QNT8 trailer");
  }
  expect_eof(is, "shard file");
  return store;
}

}  // namespace gnn4ip::core
