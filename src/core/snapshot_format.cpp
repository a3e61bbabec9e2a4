#include "core/snapshot_format.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace gnn4ip::core {

std::string shard_file_name(std::size_t shard) {
  return "shard-" + std::to_string(shard) + ".bin";
}

void write_u32(std::ostream& os, std::uint32_t value) {
  write_bytes(os, &value, sizeof(value));
}

void write_u64(std::ostream& os, std::uint64_t value) {
  write_bytes(os, &value, sizeof(value));
}

void write_bytes(std::ostream& os, const void* data, std::size_t size) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(size));
}

std::uint32_t read_u32(std::istream& is, const char* field) {
  std::uint32_t value = 0;
  read_bytes(is, &value, sizeof(value), field);
  return value;
}

std::uint64_t read_u64(std::istream& is, const char* field) {
  std::uint64_t value = 0;
  read_bytes(is, &value, sizeof(value), field);
  return value;
}

void read_bytes(std::istream& is, void* data, std::size_t size,
                const char* field) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(is.gcount()) != size) {
    throw SnapshotTruncatedError(
        std::string("snapshot stream truncated while reading ") + field);
  }
}

void expect_eof(std::istream& is, const char* artifact) {
  if (is.peek() != std::istream::traits_type::eof()) {
    throw SnapshotTruncatedError(std::string(artifact) +
                                 ": trailing bytes past the declared "
                                 "payload (mismatched or corrupt file)");
  }
}

void write_manifest(const std::filesystem::path& path,
                    const CorpusManifest& manifest) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    throw SnapshotIoError("cannot open '" + path.string() + "' for writing");
  }
  os << kManifestMagic << " v" << kManifestFormatVersion << '\n';
  os << "model " << manifest.fingerprint << '\n';
  os << "placement " << kPlacementScheme << '\n';
  os << "dim " << manifest.dim << '\n';
  os << "shards " << manifest.shards << '\n';
  os << "entries " << manifest.order.size() << '\n';
  os << "order";
  for (const std::size_t shard : manifest.order) os << ' ' << shard;
  os << '\n';
  os << "end\n";
  if (!os) {
    throw SnapshotIoError("short write to '" + path.string() + "'");
  }
}

CorpusManifest parse_manifest(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw SnapshotIoError("cannot open corpus manifest '" + path.string() +
                          "' for reading");
  }
  std::string line;
  if (!std::getline(is, line)) {
    throw SnapshotTruncatedError("corpus manifest is empty");
  }
  {
    std::istringstream ls(line);
    std::string magic;
    std::string version;
    ls >> magic >> version;
    if (magic != kManifestMagic) {
      throw SnapshotMagicError("not a corpus manifest (missing '" +
                               std::string(kManifestMagic) + "' magic)");
    }
    const std::string expected =
        "v" + std::to_string(kManifestFormatVersion);
    if (version != expected) {
      throw SnapshotVersionError("unsupported corpus manifest version '" +
                                 version + "'; this build reads " + expected);
    }
  }
  CorpusManifest manifest;
  const auto next_line = [&](const char* field) -> std::istringstream {
    if (!std::getline(is, line)) {
      throw SnapshotTruncatedError(
          std::string("corpus manifest truncated before the ") + field +
          " line");
    }
    return std::istringstream(line);
  };
  {
    std::istringstream ls = next_line("model");
    std::string tag;
    if (!(ls >> tag >> manifest.fingerprint) || tag != "model") {
      throw SnapshotManifestError("bad manifest model line: '" + line + "'");
    }
  }
  {
    std::istringstream ls = next_line("placement");
    std::string tag;
    std::string scheme;
    if (!(ls >> tag >> scheme) || tag != "placement") {
      throw SnapshotManifestError("bad manifest placement line: '" + line +
                                  "'");
    }
    if (scheme != kPlacementScheme) {
      throw SnapshotManifestError(
          "unknown placement scheme '" + scheme + "'; this build places by " +
          kPlacementScheme);
    }
  }
  {
    std::istringstream ls = next_line("dim");
    std::string tag;
    if (!(ls >> tag >> manifest.dim) || tag != "dim") {
      throw SnapshotManifestError("bad manifest dim line: '" + line + "'");
    }
  }
  {
    std::istringstream ls = next_line("shards");
    std::string tag;
    if (!(ls >> tag >> manifest.shards) || tag != "shards" ||
        manifest.shards == 0) {
      throw SnapshotManifestError("bad manifest shards line: '" + line + "'");
    }
  }
  std::size_t entries = 0;
  {
    std::istringstream ls = next_line("entries");
    std::string tag;
    if (!(ls >> tag >> entries) || tag != "entries") {
      throw SnapshotManifestError("bad manifest entries line: '" + line +
                                  "'");
    }
  }
  {
    std::istringstream ls = next_line("order");
    std::string tag;
    if (!(ls >> tag) || tag != "order") {
      throw SnapshotManifestError("bad manifest order line: '" + line + "'");
    }
    manifest.order.reserve(entries);
    std::size_t shard = 0;
    while (ls >> shard) {
      if (shard >= manifest.shards) {
        throw SnapshotManifestError(
            "manifest order references shard " + std::to_string(shard) +
            " but only " + std::to_string(manifest.shards) +
            " shards are declared");
      }
      manifest.order.push_back(shard);
    }
    if (manifest.order.size() != entries) {
      throw SnapshotManifestError(
          "manifest declares " + std::to_string(entries) +
          " entries but the order line lists " +
          std::to_string(manifest.order.size()));
    }
  }
  if (!std::getline(is, line) || line != "end") {
    throw SnapshotTruncatedError(
        "corpus manifest is missing its 'end' sentinel (truncated?)");
  }
  return manifest;
}

}  // namespace gnn4ip::core
