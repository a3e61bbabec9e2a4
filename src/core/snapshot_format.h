// Corpus snapshot format v1: constants, error taxonomy, and the little
// primitive readers/writers every snapshot loader shares.
//
// A durable resident corpus is two kinds of artifact (byte-level spec
// in docs/FORMATS.md):
//
//   * one *binary shard file* per EmbeddingStore — fixed-offset header
//     (magic, version, byte-order mark, dim, row count, live count),
//     then the row-major float block 8-byte-aligned at a known offset
//     (EmbeddingStore::load transposes it into the store's tiles), then
//     per-row live flags, then a length-prefixed name table;
//   * one *text manifest* per corpus — shard count, placement scheme,
//     global index order, and the embedder's fingerprint, line-oriented
//     like the model IO v2 format so it stays reviewable in a diff.
//
// The persistence boundary is exactly what an attacker who can touch
// disk poisons, so loaders never "best-effort" a damaged snapshot: every
// failure mode is a *distinct typed error* (bad magic, unsupported
// version, foreign byte order, dim drift, truncation, manifest/shard
// disagreement, wrong embedder fingerprint), and a failed load leaves
// the in-memory corpus untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace gnn4ip::core {

// ---- Format constants ----------------------------------------------------

/// 8-byte magic opening every binary shard file (no terminating NUL).
inline constexpr char kShardMagic[8] = {'G', '4', 'I', 'P',
                                        'S', 'H', 'R', 'D'};
/// Binary shard format version this build writes and reads.
inline constexpr std::uint32_t kShardFormatVersion = 1;
/// Byte-order mark stored after the version: reads back as a different
/// value on a foreign-endian host, turning silent float garbage into a
/// typed rejection.
inline constexpr std::uint32_t kByteOrderMark = 0x0A0B0C0Du;
/// 4-byte tag opening the legacy QNT8 trailer that earlier builds
/// appended after the name table of a v1 shard file: per-row float
/// scales, then the int8 row block. This build never writes it; the
/// loader skips it once its tag and exact length check out.
inline constexpr char kLegacyQuantTag[4] = {'Q', 'N', 'T', '8'};

/// Magic token opening the corpus manifest, followed by " v<version>".
inline constexpr const char* kManifestMagic = "gnn4ip-corpus";
/// Manifest format version this build writes and reads.
inline constexpr int kManifestFormatVersion = 1;
/// The only placement scheme v1 defines (ShardedCorpus::placement:
/// FNV-1a of the name, mod shard count). Recorded in the manifest so a
/// future scheme cannot be silently misread as this one.
inline constexpr const char* kPlacementScheme = "fnv1a-mod";

/// Magic token opening the audit-service state file ("service.txt").
inline constexpr const char* kServiceMagic = "gnn4ip-service";
/// Service state format version this build writes and reads.
inline constexpr int kServiceFormatVersion = 1;

// ---- Snapshot directory layout -------------------------------------------
// A corpus snapshot is one directory: the manifest, K shard files, and
// (when saved through audit::AuditService) the service state file.

inline constexpr const char* kManifestFileName = "manifest.txt";
inline constexpr const char* kServiceFileName = "service.txt";
/// "shard-<s>.bin" — the binary shard file of shard `s`.
[[nodiscard]] std::string shard_file_name(std::size_t shard);

// ---- Error taxonomy ------------------------------------------------------

/// Base of every snapshot rejection — catchable as one family when the
/// caller only cares that the snapshot is unusable.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// The stream does not start with the expected magic: not a snapshot
/// artifact at all (or the wrong kind of artifact).
class SnapshotMagicError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The artifact is a snapshot, but of a format version this build does
/// not read.
class SnapshotVersionError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The shard file was written on a host with a different byte order.
class SnapshotByteOrderError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The embedding dimensionality on disk disagrees with what the loading
/// context requires (another shard, the manifest, or the caller).
class SnapshotDimError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The stream ended early, or carries trailing bytes past the declared
/// payload — either way the artifact is not the one that was written.
class SnapshotTruncatedError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The manifest and the shard files (or the service state and the
/// corpus) disagree: shard-count mismatch, row tallies that don't add
/// up, placement drift, an unknown scheme, unparseable manifest lines.
class SnapshotManifestError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The snapshot was produced by a different embedder than the one
/// loading it: scoring rows from model A with model B's fingerprint
/// would be silent nonsense, so it is a hard typed rejection.
class SnapshotFingerprintError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// A snapshot file could not be opened or written at the OS level.
class SnapshotIoError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

// ---- Primitive readers/writers ------------------------------------------
// Native-endian on the wire; the byte-order mark in the header rejects
// cross-endian loads. Every reader throws SnapshotTruncatedError (with
// `what` naming the field) instead of returning short data.

void write_u32(std::ostream& os, std::uint32_t value);
void write_u64(std::ostream& os, std::uint64_t value);
void write_bytes(std::ostream& os, const void* data, std::size_t size);

[[nodiscard]] std::uint32_t read_u32(std::istream& is, const char* field);
[[nodiscard]] std::uint64_t read_u64(std::istream& is, const char* field);
void read_bytes(std::istream& is, void* data, std::size_t size,
                const char* field);

/// Throws SnapshotTruncatedError unless `is` is positioned exactly at
/// end-of-stream (a snapshot artifact has no trailing bytes).
void expect_eof(std::istream& is, const char* artifact);

// ---- Corpus manifest -----------------------------------------------------
// The one reader and writer of the text manifest, shared by every
// CorpusBackend (ShardedCorpus and dist::DistCorpus), so either
// implementation restores the other's snapshots.

/// Everything a corpus manifest records.
struct CorpusManifest {
  std::string fingerprint;         // embedder that produced the rows
  std::size_t dim = 0;
  std::size_t shards = 0;
  std::vector<std::size_t> order;  // global index -> shard id
};

/// Write `manifest` to the file at `path`. Throws SnapshotIoError when
/// the file cannot be written.
void write_manifest(const std::filesystem::path& path,
                    const CorpusManifest& manifest);

/// Parse and range-check the manifest file at `path` before any caller
/// state is touched. Throws SnapshotIoError, SnapshotMagicError,
/// SnapshotVersionError, SnapshotTruncatedError, or
/// SnapshotManifestError.
[[nodiscard]] CorpusManifest parse_manifest(const std::filesystem::path& path);

}  // namespace gnn4ip::core
