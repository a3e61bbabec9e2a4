// Snapshot + warm-restart tests: the acceptance bar for the durable
// corpus is twofold. (1) Fidelity — a restored EmbeddingStore /
// ShardedCorpus / AuditService screens and ranks exactly like the
// exhaustive oracle over the never-restarted rows, across {1, 2, 4}
// shards × {1, 2, 8} workers, with names, tombstones, pins, the name
// index, and LRU recency all surviving the round trip. (2) Rejection — every
// malformed-snapshot case (bad magic, unsupported version, foreign
// byte order, dim drift, truncation, manifest/shard disagreement,
// wrong embedder fingerprint) fails with its *distinct typed*
// core::SnapshotError, never a crash, and leaves the in-memory state
// untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "core/embedding_store.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "data/corpus.h"
#include "exhaustive_oracle.h"
#include "gnn/model_io.h"

namespace gnn4ip {
namespace {

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

std::vector<tensor::Matrix> embed_all(gnn::Hw2Vec& model,
                                      std::span<const train::GraphEntry> e) {
  std::vector<tensor::Matrix> out;
  out.reserve(e.size());
  for (const train::GraphEntry& entry : e) {
    out.push_back(model.embed_inference(entry.tensors));
  }
  return out;
}

/// Fresh (emptied) per-test snapshot directory under the system temp
/// root — deterministic names, so reruns overwrite instead of leaking.
std::string snapshot_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gnn4ip_snapshot_test" / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_rows_equal(const core::EmbeddingStore& got,
                       const core::EmbeddingStore& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.dim(), want.dim());
  EXPECT_EQ(got.live_count(), want.live_count());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.name(i), want.name(i));
    EXPECT_EQ(got.live(i), want.live(i));
    const std::vector<float> g = got.row(i);
    const std::vector<float> w = want.row(i);
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t k = 0; k < w.size(); ++k) {
      EXPECT_EQ(g[k], w[k]) << "row " << i << " cell " << k;
    }
  }
}

// ---- EmbeddingStore: binary shard format ---------------------------------

core::EmbeddingStore sample_store() {
  core::EmbeddingStore store;
  tensor::Matrix a(1, 4, 0.0F);
  for (std::size_t c = 0; c < 4; ++c) a.at(0, c) = 0.25F * (c + 1);
  tensor::Matrix b(1, 4, -1.5F);
  tensor::Matrix c(1, 4, 3.25F);
  (void)store.add("crc8", a);
  (void)store.add("name with spaces", b);
  (void)store.add("", c);  // empty names are legal and must round-trip
  store.remove(1);         // tombstones are part of the persisted state
  return store;
}

std::string serialized_sample_store() {
  std::ostringstream os(std::ios::binary);
  sample_store().save(os);
  return os.str();
}

TEST(SnapshotStore, RoundTripIsExactIncludingTombstonesAndNames) {
  const core::EmbeddingStore original = sample_store();
  std::ostringstream os(std::ios::binary);
  original.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is, 4);
  expect_rows_equal(loaded, original);
}

TEST(SnapshotStore, EmptyStoreRoundTrips) {
  const core::EmbeddingStore empty;
  std::ostringstream os(std::ios::binary);
  empty.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.dim(), 0u);
}

// Fixed header offsets of the v1 shard format (docs/FORMATS.md): magic
// [0, 8), version u32 @8, byte-order mark u32 @12, dim u64 @16, rows
// u64 @24, live u64 @32, float block @40.
TEST(SnapshotStore, LoadRejectsBadMagicTyped) {
  std::string bytes = serialized_sample_store();
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotMagicError);
}

TEST(SnapshotStore, LoadRejectsUnsupportedVersionTyped) {
  std::string bytes = serialized_sample_store();
  bytes[8] = static_cast<char>(core::kShardFormatVersion + 1);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotVersionError);
}

TEST(SnapshotStore, LoadRejectsForeignByteOrderTyped) {
  std::string bytes = serialized_sample_store();
  // A byte-swapped mark is exactly what a foreign-endian writer leaves.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotByteOrderError);
}

TEST(SnapshotStore, LoadRejectsDimDriftTyped) {
  std::istringstream is(serialized_sample_store(), std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is, /*expected_dim=*/5),
               core::SnapshotDimError);
}

TEST(SnapshotStore, LoadRejectsTruncationAtEveryLayerTyped) {
  const std::string bytes = serialized_sample_store();
  // Cut inside the magic, the header, the float block, the flags/name
  // region, and one byte short of complete: all the same typed error.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, std::size_t{39}, std::size_t{48},
        bytes.size() - 10, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    std::istringstream is(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(SnapshotStore, LoadRejectsTrailingBytesTyped) {
  std::istringstream is(serialized_sample_store() + "x", std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotTruncatedError);
}

// ---- The v1 bytes themselves -----------------------------------------------
// The round trips above read back what this build wrote, so a layout
// change that leaked into both save() and load() would pass them. These
// pin the file against the documented v1 layout: row-major floats
// whatever the in-memory layout.

constexpr std::size_t kPinRows = 11;  // not a multiple of the tile height
constexpr std::size_t kPinDim = 5;
constexpr std::size_t kPinRemoved = 9;

float pinned_cell(std::size_t i, std::size_t k) {
  return 0.375F * static_cast<float>(static_cast<int>(7 * i + 3 * k) - 20);
}

std::string pinned_name(std::size_t i) {
  if (i == 4) return "";
  if (i == 7) return "lib:barrel_shifter#1234";
  return "ip" + std::to_string(i);
}

/// FNV-1a, 64-bit, over raw bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// `value` as `width` little-endian bytes.
void put_le(std::string& out, std::uint64_t value, std::size_t width) {
  for (std::size_t b = 0; b < width; ++b) {
    out.push_back(static_cast<char>((value >> (8 * b)) & 0xFF));
  }
}

TEST(SnapshotStore, SavedBytesPinnedV1) {
  // The file is written in host byte order; the constant and the
  // hand-built bytes below are little-endian.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "pinned bytes are little-endian";
  }
  core::EmbeddingStore store;
  for (std::size_t i = 0; i < kPinRows; ++i) {
    tensor::Matrix row(1, kPinDim);
    for (std::size_t k = 0; k < kPinDim; ++k) row.at(0, k) = pinned_cell(i, k);
    (void)store.add(pinned_name(i), row);
  }
  store.remove(kPinRemoved);
  std::ostringstream os(std::ios::binary);
  store.save(os);
  const std::string saved = os.str();
  EXPECT_EQ(fnv1a(saved), 0xa3b7ffb3fe58c009ULL)
      << "saved bytes hash to 0x" << std::hex << fnv1a(saved);

  // The same store, built by hand in the v1 layout of docs/FORMATS.md:
  // magic, version, byte-order mark, dim, rows, live rows, the floats
  // row by row, the live flags, the name table.
  std::string bytes = "G4IPSHRD";
  put_le(bytes, 1, 4);
  put_le(bytes, 0x0A0B0C0D, 4);
  put_le(bytes, kPinDim, 8);
  put_le(bytes, kPinRows, 8);
  put_le(bytes, kPinRows - 1, 8);
  for (std::size_t i = 0; i < kPinRows; ++i) {
    for (std::size_t k = 0; k < kPinDim; ++k) {
      put_le(bytes, std::bit_cast<std::uint32_t>(pinned_cell(i, k)), 4);
    }
  }
  for (std::size_t i = 0; i < kPinRows; ++i) {
    bytes.push_back(i == kPinRemoved ? '\0' : '\1');
  }
  for (std::size_t i = 0; i < kPinRows; ++i) {
    put_le(bytes, pinned_name(i).size(), 8);
    bytes += pinned_name(i);
  }
  EXPECT_EQ(bytes, saved);

  std::istringstream is(bytes, std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is, kPinDim);
  ASSERT_EQ(loaded.size(), kPinRows);
  EXPECT_EQ(loaded.live_count(), kPinRows - 1);
  for (std::size_t i = 0; i < kPinRows; ++i) {
    EXPECT_EQ(loaded.name(i), pinned_name(i));
    EXPECT_EQ(loaded.live(i), i != kPinRemoved) << "row " << i;
    const auto row = loaded.row(i);
    ASSERT_EQ(row.size(), kPinDim);
    for (std::size_t k = 0; k < kPinDim; ++k) {
      EXPECT_EQ(row[k], pinned_cell(i, k)) << "row " << i << " cell " << k;
    }
  }
}

// ---- The legacy QNT8 trailer ----------------------------------------------
// Earlier builds appended a quantized tier after the name table: the
// tag, one f32 scale per row, then the rows×dim int8 block. This build
// never writes it; loaders skip it once the tag and the exact length
// check out.

/// `bytes` (a shard file of `rows` rows at `dim`) with a legacy trailer
/// appended. The payload bytes are arbitrary — they fed only the
/// removed prefilter, so a loader must never interpret them.
std::string with_legacy_trailer(const std::string& bytes, std::size_t rows,
                                std::size_t dim) {
  return bytes + "QNT8" + std::string(rows * (sizeof(float) + dim), '\xAB');
}

TEST(SnapshotStore, SaveWritesNoQuantTrailer) {
  const std::string bytes = serialized_sample_store();
  EXPECT_EQ(bytes.find("QNT8"), std::string::npos);
}

TEST(SnapshotStore, LegacyQuantTrailerIsSkipped) {
  const core::EmbeddingStore original = sample_store();
  std::istringstream is(with_legacy_trailer(serialized_sample_store(), 3, 4),
                        std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is, 4);
  expect_rows_equal(loaded, original);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.norm(i), original.norm(i)) << "row " << i;
  }
}

TEST(SnapshotStore, LoadRejectsMisSizedLegacyTrailerTyped) {
  // One byte short, or one byte past, the exact trailer length: both
  // are damage, not a legacy file.
  const std::string legacy =
      with_legacy_trailer(serialized_sample_store(), 3, 4);
  for (const std::string& damaged :
       {legacy.substr(0, legacy.size() - 1), legacy + "x"}) {
    std::istringstream is(damaged, std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError)
        << damaged.size() << " bytes";
  }
}

TEST(SnapshotStore, LoadRejectsForeignTrailingSectionTyped) {
  // Trailing bytes that are not a QNT8 trailer — a wrong tag, or a tag
  // torn mid-write — are truncation-class damage, not a legacy file.
  const std::string bytes = serialized_sample_store();
  {
    std::string corrupt = with_legacy_trailer(bytes, 3, 4);
    corrupt[bytes.size()] = 'X';
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError);
  }
  {
    std::istringstream is(bytes + "QN", std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError);
  }
}

TEST(SnapshotStore, LoadRejectsInconsistentHeaderTyped) {
  std::string bytes = serialized_sample_store();
  // Declare live = rows + 1 (header @32): internally inconsistent.
  bytes[32] = 4;
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotManifestError);
}

// ---- ShardedCorpus: snapshot directory (shards + manifest) ---------------

TEST(SnapshotCorpus, SaveRestoreRoundTripsRowsNamesAndTombstones) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  core::ShardedCorpus original(3);
  for (std::size_t i = 0; i < 6; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  original.remove(2);
  const std::string dir = snapshot_dir("corpus_roundtrip");
  original.save(dir, "fp-roundtrip");
  EXPECT_EQ(core::ShardedCorpus::snapshot_fingerprint(dir), "fp-roundtrip");

  core::ShardedCorpus restored(1);
  restored.restore(dir, "fp-roundtrip");
  // The restored corpus adopts the snapshot's shard count and global
  // index order; rows are byte-equal.
  EXPECT_EQ(restored.num_shards(), 3u);
  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.live_count(), original.live_count());
  EXPECT_EQ(restored.dim(), original.dim());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.name(i), original.name(i));
    EXPECT_EQ(restored.live(i), original.live(i));
    EXPECT_EQ(restored.shard_of(i), original.shard_of(i));
    const std::vector<float> g = restored.row(i);
    const std::vector<float> w = original.row(i);
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t k = 0; k < w.size(); ++k) EXPECT_EQ(g[k], w[k]);
  }
}

TEST(SnapshotCorpus, RestoredScreeningMatchesOracleAcrossShardAndWorkerCounts) {
  // The acceptance criterion: post-restore screen_new_rows/top_k equal
  // the oracle over the never-restarted corpus, for every shard count ×
  // worker count.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  for (const std::size_t shards : {1u, 2u, 4u}) {
    core::ShardedCorpus original(shards);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      (void)original.add(entries[i].name, embeddings[i]);
    }
    original.remove(1);  // exercise tombstone persistence in scoring
    const std::string dir =
        snapshot_dir("corpus_bitident_" + std::to_string(shards));
    original.save(dir, "fp-bitident");

    for (const std::size_t workers : {1u, 2u, 8u}) {
      core::ScorerOptions options;
      options.num_threads = workers;
      core::ShardedCorpus restored(1, options);
      restored.restore(dir, "fp-bitident");
      const std::string label = std::to_string(shards) + " shards, " +
                                std::to_string(workers) + " workers";
      oracle::expect_same_screen(restored.screen_new_rows(resident, 0.5F),
                                 oracle::screen(original, resident, 0.5F),
                                 label);
      oracle::expect_same_ranking(restored.top_k(0, 5),
                                  oracle::top_k(original, 0, 5), label);
    }
  }
}

TEST(SnapshotCorpus, LegacyQuantTrailersRestoreAndScreenBitIdentically) {
  // A snapshot whose shard files carry the QNT8 trailer earlier builds
  // wrote restores to the same rows and screens exactly as before.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  core::ShardedCorpus original(2);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  original.remove(3);
  const std::string dir = snapshot_dir("corpus_legacy_trailer");
  original.save(dir, "fp-legacy");
  for (std::size_t s = 0; s < original.num_shards(); ++s) {
    const std::string path =
        (std::filesystem::path(dir) / core::shard_file_name(s)).string();
    std::istringstream is(slurp(path), std::ios::binary);
    const core::EmbeddingStore shard = core::EmbeddingStore::load(is);
    spew(path, with_legacy_trailer(slurp(path), shard.size(), shard.dim()));
  }

  core::ShardedCorpus restored(1);
  restored.restore(dir, "fp-legacy");
  oracle::expect_same_screen(restored.screen_new_rows(resident, 0.5F),
                             original.screen_new_rows(resident, 0.5F),
                             "legacy trailer");
  oracle::expect_same_screen(restored.screen_new_rows(resident, 0.5F),
                             oracle::screen(original, resident, 0.5F),
                             "legacy trailer vs oracle");
  oracle::expect_same_ranking(restored.top_k(0, 99), original.top_k(0, 99),
                              "legacy trailer top_k");
}

TEST(SnapshotCorpus, RestoreRejectsWrongFingerprintAndLeavesCorpusAlone) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  core::ShardedCorpus original(2);
  for (std::size_t i = 0; i < 4; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  const std::string dir = snapshot_dir("corpus_fingerprint");
  original.save(dir, "fp-writer");

  core::ShardedCorpus victim(2);
  (void)victim.add(entries[4].name, embeddings[4]);
  EXPECT_THROW(victim.restore(dir, "fp-other"),
               core::SnapshotFingerprintError);
  // Strong guarantee: the failed restore changed nothing.
  ASSERT_EQ(victim.size(), 1u);
  EXPECT_EQ(victim.name(0), entries[4].name);
  // An empty expected fingerprint skips the check (caller opted out).
  victim.restore(dir, "");
  EXPECT_EQ(victim.size(), 4u);
}

TEST(SnapshotCorpus, RestoreRejectsTamperedManifestTyped) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  core::ShardedCorpus original(2);
  for (std::size_t i = 0; i < 4; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  const std::string dir = snapshot_dir("corpus_manifest");
  original.save(dir, "fp-manifest");
  const std::string manifest_path =
      (std::filesystem::path(dir) / core::kManifestFileName).string();
  const std::string pristine = slurp(manifest_path);

  const auto expect_restore_error =
      [&](const std::string& mutated, const auto& matcher) {
        spew(manifest_path, mutated);
        core::ShardedCorpus corpus(1);
        matcher(corpus);
        spew(manifest_path, pristine);
      };

  // Wrong magic: not a corpus manifest at all.
  expect_restore_error(
      "not-a-manifest v1\n", [&](core::ShardedCorpus& c) {
        EXPECT_THROW(c.restore(dir, ""), core::SnapshotMagicError);
      });
  // Right magic, future version.
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find(" v1"), 3, " v9");
    expect_restore_error(mutated, [&](core::ShardedCorpus& c) {
      EXPECT_THROW(c.restore(dir, ""), core::SnapshotVersionError);
    });
  }
  // Unknown placement scheme: rows would land in the wrong shards.
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find(core::kPlacementScheme),
                    std::string(core::kPlacementScheme).size(), "crc32-mod");
    expect_restore_error(mutated, [&](core::ShardedCorpus& c) {
      EXPECT_THROW(c.restore(dir, ""), core::SnapshotManifestError);
    });
  }
  // Truncated: the 'end' sentinel is gone.
  expect_restore_error(
      pristine.substr(0, pristine.find("end")),
      [&](core::ShardedCorpus& c) {
        EXPECT_THROW(c.restore(dir, ""), core::SnapshotTruncatedError);
      });

  // Pristine manifest restores fine afterwards.
  core::ShardedCorpus corpus(1);
  corpus.restore(dir, "fp-manifest");
  EXPECT_EQ(corpus.live_count(), 4u);
}

TEST(SnapshotCorpus, RestoreRejectsMissingShardFileTyped) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  core::ShardedCorpus original(3);
  for (std::size_t i = 0; i < 6; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  const std::string dir = snapshot_dir("corpus_missing_shard");
  original.save(dir, "fp-missing");
  std::filesystem::remove(std::filesystem::path(dir) /
                          core::shard_file_name(1));
  core::ShardedCorpus corpus(1);
  EXPECT_THROW(corpus.restore(dir, "fp-missing"),
               core::SnapshotManifestError);
  EXPECT_EQ(corpus.size(), 0u);  // untouched
}

}  // namespace
}  // namespace gnn4ip

// ---- AuditService / AsyncAuditor: warm restart ---------------------------

namespace gnn4ip::audit {
namespace {

using gnn4ip::small_corpus;
using gnn4ip::snapshot_dir;
using gnn4ip::slurp;
using gnn4ip::spew;

void expect_reports_equal(const std::vector<ScreenReport>& got,
                          const std::vector<ScreenReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].submission.name, want[r].submission.name);
    EXPECT_EQ(got[r].submission.accepted, want[r].submission.accepted);
    EXPECT_EQ(got[r].submission.corpus_index,
              want[r].submission.corpus_index);
    ASSERT_EQ(got[r].verdicts.size(), want[r].verdicts.size()) << "report "
                                                               << r;
    for (std::size_t v = 0; v < want[r].verdicts.size(); ++v) {
      EXPECT_EQ(got[r].verdicts[v].matched, want[r].verdicts[v].matched);
      EXPECT_EQ(got[r].verdicts[v].corpus_index,
                want[r].verdicts[v].corpus_index);
      EXPECT_EQ(got[r].verdicts[v].similarity,
                want[r].verdicts[v].similarity);
      EXPECT_EQ(got[r].verdicts[v].flagged, want[r].verdicts[v].flagged);
    }
    ASSERT_EQ(got[r].best.has_value(), want[r].best.has_value());
    if (want[r].best) {
      EXPECT_EQ(got[r].best->matched, want[r].best->matched);
      EXPECT_EQ(got[r].best->similarity, want[r].best->similarity);
    }
  }
}

TEST(SnapshotAudit, ModelFingerprintIsStableAndWeightSensitive) {
  gnn::Hw2Vec a;
  gnn::Hw2Vec b;
  EXPECT_EQ(gnn::model_fingerprint(a), gnn::model_fingerprint(b));
  EXPECT_EQ(gnn::model_fingerprint(a).size(), 16u);
  gnn::Hw2VecConfig config;
  config.seed = 99;  // different weights, same architecture
  gnn::Hw2Vec c(config);
  EXPECT_NE(gnn::model_fingerprint(a), gnn::model_fingerprint(c));
}

TEST(SnapshotAudit, WarmRestartScreensBitIdenticalToNeverRestarted) {
  // Warm reference: library + part A + part B in one process. Restarted
  // run: screen part A, save, load into a fresh service, screen part B.
  // Part B's reports must match the warm process cell by cell — the
  // restart is invisible.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 9u);
  const std::size_t library = 3;
  const std::size_t split = 6;

  AuditOptions options;
  options.num_shards = 2;
  options.scorer.delta = -2.0F;  // every resident match is a verdict

  AuditService warm(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(warm.add_library(entries[i]).accepted);
  }
  for (std::size_t i = library; i < split; ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
  }
  (void)warm.screen();
  for (std::size_t i = split; i < entries.size(); ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
  }
  const std::vector<ScreenReport> warm_part_b = warm.screen();

  AuditService first(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(first.add_library(entries[i]).accepted);
  }
  for (std::size_t i = library; i < split; ++i) {
    ASSERT_TRUE(first.submit(entries[i]));
  }
  (void)first.screen();
  const std::string dir = snapshot_dir("audit_warm_restart");
  first.save_corpus(dir);

  AuditService second(model, options);
  second.load_corpus(dir);
  EXPECT_EQ(second.resident(), first.resident());
  for (std::size_t i = split; i < entries.size(); ++i) {
    ASSERT_TRUE(second.submit(entries[i]));
  }
  const std::vector<ScreenReport> cold_part_b = second.screen();

  expect_reports_equal(cold_part_b, warm_part_b);
  // Post-restart top_k equals the warm process's too.
  const std::vector<Verdict> warm_top = warm.top_k(entries[0].name, 5);
  const std::vector<Verdict> cold_top = second.top_k(entries[0].name, 5);
  ASSERT_EQ(cold_top.size(), warm_top.size());
  for (std::size_t i = 0; i < warm_top.size(); ++i) {
    EXPECT_EQ(cold_top[i].matched, warm_top[i].matched);
    EXPECT_EQ(cold_top[i].corpus_index, warm_top[i].corpus_index);
    EXPECT_EQ(cold_top[i].similarity, warm_top[i].similarity);
  }
}

TEST(SnapshotAudit, LoadRejectsSnapshotFromDifferentModel) {
  gnn::Hw2Vec writer_model;
  const auto entries = small_corpus();
  AuditOptions options;
  AuditService writer(writer_model, options);
  ASSERT_TRUE(writer.add_library(entries[0]).accepted);
  const std::string dir = snapshot_dir("audit_wrong_model");
  writer.save_corpus(dir);

  gnn::Hw2VecConfig config;
  config.seed = 99;
  AuditService reader(gnn::Hw2Vec(config), options);
  ASSERT_TRUE(reader.add_library(entries[1]).accepted);
  EXPECT_THROW(reader.load_corpus(dir), core::SnapshotFingerprintError);
  // Strong guarantee: the reader kept its own corpus.
  EXPECT_EQ(reader.resident(), 1u);
  EXPECT_TRUE(reader.contains(entries[1].name));
}

TEST(SnapshotAudit, WarmRestartPreservesPinsNameIndexAndLruRecency) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 2;
  options.max_resident = 4;
  options.scorer.delta = -2.0F;

  // Twin A stays warm; twin B restarts from A's snapshot. Both then see
  // the same eviction pressure — identical victims proves the restored
  // LRU recency equals the warm one.
  AuditService warm(model, options);
  ASSERT_TRUE(warm.add_library(entries[0]).accepted);  // pinned
  for (std::size_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
    (void)warm.screen();
  }
  ASSERT_EQ(warm.resident(), 4u);

  const std::string dir = snapshot_dir("audit_lru");
  warm.save_corpus(dir);
  AuditService restarted(model, options);
  restarted.load_corpus(dir);

  EXPECT_EQ(restarted.resident(), warm.resident());
  EXPECT_TRUE(restarted.pinned(entries[0].name));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(restarted.contains(entries[i].name),
              warm.contains(entries[i].name))
        << entries[i].name;
    EXPECT_EQ(restarted.index_of(entries[i].name),
              warm.index_of(entries[i].name))
        << entries[i].name;
  }

  // Same pressure, same victims — one submission at a time.
  for (std::size_t i = 6; i < 8; ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
    (void)warm.screen();
    ASSERT_TRUE(restarted.submit(entries[i]));
    (void)restarted.screen();
    for (std::size_t j = 0; j < entries.size(); ++j) {
      EXPECT_EQ(restarted.contains(entries[j].name),
                warm.contains(entries[j].name))
          << "after submission " << i << ": " << entries[j].name;
    }
  }
  // The pinned library row survived both streams.
  EXPECT_TRUE(warm.contains(entries[0].name));
  EXPECT_TRUE(restarted.contains(entries[0].name));
}

TEST(SnapshotAudit, LoadRejectsTamperedServiceStateTyped) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  AuditService writer(model, options);
  ASSERT_TRUE(writer.add_library(entries[0]).accepted);
  ASSERT_TRUE(writer.add_library(entries[1]).accepted);
  const std::string dir = snapshot_dir("audit_service_tamper");
  writer.save_corpus(dir);
  const std::string service_path =
      (std::filesystem::path(dir) / core::kServiceFileName).string();
  const std::string pristine = slurp(service_path);

  const auto expect_load_error = [&](const std::string& mutated,
                                     const auto& check) {
    spew(service_path, mutated);
    AuditService reader(model, options);
    ASSERT_TRUE(reader.add_library(entries[2]).accepted);
    check(reader);
    // Strong guarantee, every time: the reader kept its own state.
    EXPECT_EQ(reader.resident(), 1u);
    EXPECT_TRUE(reader.contains(entries[2].name));
    spew(service_path, pristine);
  };

  expect_load_error("bogus v1\nend\n", [&](AuditService& r) {
    EXPECT_THROW(r.load_corpus(dir), core::SnapshotMagicError);
  });
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find(" v1"), 3, " v7");
    expect_load_error(mutated, [&](AuditService& r) {
      EXPECT_THROW(r.load_corpus(dir), core::SnapshotVersionError);
    });
  }
  // Truncated before the declared entries.
  expect_load_error(pristine.substr(0, pristine.find("entry")),
                    [&](AuditService& r) {
                      EXPECT_THROW(r.load_corpus(dir),
                                   core::SnapshotTruncatedError);
                    });
  // A pin naming a non-resident design.
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find("pins 2"), 6, "pins 3");
    mutated.insert(mutated.find("end"), "pin ghost-design\n");
    expect_load_error(mutated, [&](AuditService& r) {
      EXPECT_THROW(r.load_corpus(dir), core::SnapshotManifestError);
    });
  }
  // A name-index entry disagreeing with the corpus row's name.
  {
    std::string mutated = pristine;
    const std::size_t at = mutated.find("entry 0 ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t eol = mutated.find('\n', at);
    mutated.replace(at, eol - at, "entry 0 impostor");
    expect_load_error(mutated, [&](AuditService& r) {
      EXPECT_THROW(r.load_corpus(dir), core::SnapshotManifestError);
    });
  }
  // Missing service file entirely.
  std::filesystem::remove(service_path);
  AuditService reader(model, options);
  EXPECT_THROW(reader.load_corpus(dir), core::SnapshotManifestError);
  spew(service_path, pristine);
  reader.load_corpus(dir);
  EXPECT_EQ(reader.resident(), 2u);
}

TEST(SnapshotAudit, AsyncQuiesceThenSaveCapturesEverySubmission) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 7u);

  AuditOptions options;
  options.num_shards = 2;
  options.scorer.delta = -2.0F;
  AsyncOptions async;
  async.num_consumers = 2;
  AsyncAuditor auditor(model, options, std::move(async));
  ASSERT_TRUE(auditor.service().add_library(entries[0]).accepted);

  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = 1; i < 7; ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  const std::string dir = snapshot_dir("async_save");
  auditor.save_corpus(dir);  // quiesce-then-save

  // Every submission accepted before the save is in the snapshot.
  AuditService restored(model, options);
  restored.load_corpus(dir);
  EXPECT_EQ(restored.resident(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(restored.contains(entries[i].name)) << entries[i].name;
  }
  EXPECT_TRUE(restored.pinned(entries[0].name));
  for (std::future<ScreenReport>& f : futures) {
    EXPECT_TRUE(f.get().submission.accepted);
  }
}

}  // namespace
}  // namespace gnn4ip::audit
