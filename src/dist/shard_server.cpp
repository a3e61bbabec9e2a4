#include "dist/shard_server.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/shard_sweep.h"
#include "core/snapshot_format.h"
#include "net/wire_format.h"
#include "tensor/matrix.h"

namespace gnn4ip::dist {

namespace {

using core::EmbeddingStore;
using net::FrameBuilder;
using net::FrameCursor;
using net::MsgType;

/// Copy a request's `nrows`×`dim` probe block out of the frame into
/// `storage` and view it as one span per row. The block sits behind the
/// 5-byte frame header, so it may be unaligned: memcpy, never a float*
/// read in place.
std::vector<std::span<const float>> read_probes(FrameCursor& cur,
                                                std::size_t nrows,
                                                std::size_t dim,
                                                std::vector<float>& storage,
                                                const char* field) {
  const float* block = cur.get_f32_array(nrows * dim, field);
  storage.resize(nrows * dim);
  std::memcpy(storage.data(), block, storage.size() * sizeof(float));
  std::vector<std::span<const float>> rows;
  rows.reserve(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    rows.push_back(std::span<const float>(storage).subspan(r * dim, dim));
  }
  return rows;
}

}  // namespace

ShardServer::ShardServer(std::uint16_t port, ShardServerOptions options)
    : options_(std::move(options)), listener_(port) {}

void ShardServer::load_shard(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw core::SnapshotIoError("cannot open shard file '" + path + "'");
  }
  store_ = EmbeddingStore::load(is);
}

void ShardServer::serve() {
  // The acceptor owns the blocking accept; serve() owns connections.
  // Both poll stop_ on a poll_ms cadence, so stop() lands within one
  // interval of whichever wait is in progress.
  std::thread acceptor([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::optional<net::Socket> conn = listener_.accept(options_.poll_ms);
      if (conn) (void)pending_.try_push(std::move(*conn));
    }
  });
  while (!stop_.load(std::memory_order_relaxed)) {
    std::optional<net::Socket> conn =
        pending_.pop_for(std::chrono::milliseconds(options_.poll_ms));
    if (conn) handle_connection(std::move(*conn));
  }
  acceptor.join();
}

void ShardServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  pending_.close();
}

void ShardServer::handle_connection(net::Socket socket) {
  std::vector<std::uint8_t> out;
  const auto answer_error = [&](net::WireErrorCode code,
                                const std::string& message) {
    out.clear();
    net::build_error_frame(out, code, message);
    try {
      socket.write_all(out.data(), out.size());
    } catch (const net::WireError&) {
      // The peer is gone; nothing left to tell it.
    }
  };
  try {
    const net::Frame hello = net::read_frame(socket);
    if (hello.type != MsgType::kHello) {
      answer_error(net::WireErrorCode::kProtocol,
                   "first frame must be Hello, not type " +
                       std::to_string(static_cast<unsigned>(hello.type)));
      return;
    }
    FrameCursor cur(hello.payload);
    char magic[sizeof(net::kWireMagic)];
    cur.get_bytes(magic, sizeof(magic), "magic");
    if (std::memcmp(magic, net::kWireMagic, sizeof(magic)) != 0) {
      answer_error(net::WireErrorCode::kMagic,
                   "Hello does not open with the G4IPWIRE magic");
      return;
    }
    const std::uint32_t version = cur.get_u32("version");
    if (version != net::kWireVersion) {
      answer_error(net::WireErrorCode::kVersion,
                   "peer speaks wire version " + std::to_string(version) +
                       "; this shard speaks " +
                       std::to_string(net::kWireVersion));
      return;
    }
    const std::uint32_t bom = cur.get_u32("byte-order mark");
    if (bom != net::kWireByteOrderMark) {
      answer_error(net::WireErrorCode::kByteOrder,
                   "byte-order mark read back scrambled — peer runs on a "
                   "foreign-endian host");
      return;
    }
    const std::uint32_t dim = cur.get_u32("dim");
    if (dim != 0 && store_.dim() != 0 && dim != store_.dim()) {
      answer_error(net::WireErrorCode::kDim,
                   "client embeds at dim " + std::to_string(dim) +
                       " but this shard holds dim " +
                       std::to_string(store_.dim()));
      return;
    }
    const std::string fingerprint = cur.get_string("model fingerprint");
    cur.done("Hello");
    if (!options_.fingerprint.empty() && !fingerprint.empty() &&
        fingerprint != options_.fingerprint) {
      answer_error(net::WireErrorCode::kFingerprint,
                   "this shard serves model " + options_.fingerprint +
                       " but the client embeds with " + fingerprint);
      return;
    }
    if (options_.fingerprint.empty()) options_.fingerprint = fingerprint;
    out.clear();
    {
      FrameBuilder ack(out, MsgType::kHelloAck);
      ack.put_u32(static_cast<std::uint32_t>(store_.dim()));
      ack.put_u64(store_.size());
      ack.put_u64(store_.live_count());
      ack.put_string(options_.fingerprint);
      ack.finish();
    }
    socket.write_all(out.data(), out.size());

    while (!stop_.load(std::memory_order_relaxed)) {
      if (!socket.wait_readable(options_.poll_ms)) continue;
      const net::Frame frame = net::read_frame(socket);
      if (!dispatch(socket, static_cast<std::uint8_t>(frame.type),
                    frame.payload)) {
        return;
      }
    }
  } catch (const net::WireConnectionError&) {
    // A hang-up at a frame boundary is the legal end of a conversation.
  } catch (const net::WireError& e) {
    answer_error(net::wire_error_code(e), e.what());
  } catch (const core::SnapshotError& e) {
    // SaveShard / load-path failures: disk trouble crossing the wire.
    answer_error(net::WireErrorCode::kIo, e.what());
  }
}

bool ShardServer::dispatch(net::Socket& socket, std::uint8_t type,
                           const std::vector<std::uint8_t>& payload) {
  FrameCursor cur(payload);
  std::vector<std::uint8_t> out;
  const auto check_dim = [&](std::uint32_t dim) {
    if (dim == 0) {
      throw net::WireProtocolError("request declares dim 0");
    }
    if (store_.dim() != 0 && dim != store_.dim()) {
      throw net::WireDimError("request carries dim " + std::to_string(dim) +
                              " rows but this shard holds dim " +
                              std::to_string(store_.dim()));
    }
  };
  const auto check_limit = [&](std::uint64_t limit) {
    if (limit > store_.size()) {
      throw net::WireProtocolError(
          "candidate limit " + std::to_string(limit) + " exceeds the " +
          std::to_string(store_.size()) +
          " rows resident here — front end and shard have drifted apart");
    }
  };

  switch (static_cast<MsgType>(type)) {
    case MsgType::kAdmitRows: {
      const std::uint32_t dim = cur.get_u32("dim");
      check_dim(dim);
      const std::uint32_t count = cur.get_u32("row count");
      tensor::Matrix row(1, dim);
      for (std::uint32_t r = 0; r < count; ++r) {
        std::string name = cur.get_string("row name");
        const float* values = cur.get_f32_array(dim, "row floats");
        std::memcpy(row.row(0).data(), values, dim * sizeof(float));
        (void)store_.add(std::move(name), row);
      }
      cur.done("AdmitRows");
      return true;
    }

    case MsgType::kRemove: {
      const std::uint64_t local = cur.get_u64("local index");
      cur.done("Remove");
      if (local >= store_.size()) {
        throw net::WireProtocolError(
            "Remove of local row " + std::to_string(local) + " but only " +
            std::to_string(store_.size()) + " rows are resident");
      }
      if (!store_.live(local)) {
        throw net::WireProtocolError("Remove of already-removed local row " +
                                     std::to_string(local));
      }
      store_.remove(local);
      return true;
    }

    case MsgType::kCompact: {
      cur.done("Compact");
      (void)store_.compact();
      return true;
    }

    case MsgType::kReset: {
      cur.done("Reset");
      store_ = EmbeddingStore();
      return true;
    }

    case MsgType::kScreen: {
      const std::uint32_t dim = cur.get_u32("dim");
      check_dim(dim);
      const std::uint32_t nrows = cur.get_u32("probe count");
      if (nrows == 0) throw net::WireProtocolError("Screen with 0 probes");
      const float delta = cur.get_f32("delta");
      const std::uint64_t limit = cur.get_u64("candidate limit");
      check_limit(limit);
      std::vector<float> storage;
      const std::vector<std::span<const float>> probes =
          read_probes(cur, nrows, dim, storage, "probe rows");
      cur.done("Screen");
      // The same sweep ShardedCorpus runs per shard: what crosses back
      // is this shard's exact partials, which the front end merges
      // under the in-process tie-breaks.
      const std::vector<core::ScreenRow> partials = core::screen_shard(
          store_, static_cast<std::size_t>(limit), probes, delta);

      FrameBuilder b(out, MsgType::kScreenResult);
      for (const core::ScreenRow& p : partials) {
        b.put_u32(static_cast<std::uint32_t>(p.flagged.size()));
        for (const core::ScreenMatch& m : p.flagged) {
          b.put_u64(m.index);
          b.put_f32(m.similarity);
        }
        b.put_u8(p.best ? 1 : 0);
        if (p.best) {
          b.put_u64(p.best->index);
          b.put_f32(p.best->similarity);
        }
        b.put_u64(p.scanned);
        b.put_u64(p.rescored);
      }
      b.finish();
      socket.write_all(out.data(), out.size());
      return true;
    }

    case MsgType::kTopK: {
      const std::uint32_t dim = cur.get_u32("dim");
      check_dim(dim);
      const std::uint64_t k = cur.get_u64("k");
      const std::uint64_t limit = cur.get_u64("candidate limit");
      check_limit(limit);
      const std::uint64_t exclude = cur.get_u64("excluded local index");
      std::vector<float> storage;
      const std::vector<std::span<const float>> probe =
          read_probes(cur, 1, dim, storage, "probe row");
      cur.done("TopK");
      const std::vector<core::ScreenMatch> result = core::top_k_shard(
          store_, static_cast<std::size_t>(limit), probe[0],
          static_cast<std::size_t>(k), static_cast<std::size_t>(exclude));

      FrameBuilder b(out, MsgType::kTopKResult);
      b.put_u32(static_cast<std::uint32_t>(result.size()));
      for (const core::ScreenMatch& m : result) {
        b.put_u64(m.index);
        b.put_f32(m.similarity);
      }
      b.finish();
      socket.write_all(out.data(), out.size());
      return true;
    }

    case MsgType::kSaveShard: {
      const std::string dir = cur.get_string("snapshot directory");
      const std::uint64_t shard = cur.get_u64("shard id");
      cur.done("SaveShard");
      const std::filesystem::path root(dir);
      std::error_code ec;
      std::filesystem::create_directories(root, ec);
      if (ec) {
        throw core::SnapshotIoError("cannot create snapshot directory '" +
                                    dir + "': " + ec.message());
      }
      const std::filesystem::path path =
          root / core::shard_file_name(static_cast<std::size_t>(shard));
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      if (!os) {
        throw core::SnapshotIoError("cannot open '" + path.string() +
                                    "' for writing");
      }
      store_.save(os);
      if (!os) {
        throw core::SnapshotIoError("short write to '" + path.string() + "'");
      }
      FrameBuilder b(out, MsgType::kSaveAck);
      b.put_u64(store_.size());
      b.put_u64(store_.live_count());
      b.finish();
      socket.write_all(out.data(), out.size());
      return true;
    }

    case MsgType::kInfo: {
      cur.done("Info");
      FrameBuilder b(out, MsgType::kInfoAck);
      b.put_u32(static_cast<std::uint32_t>(store_.dim()));
      b.put_u64(store_.size());
      b.put_u64(store_.live_count());
      b.finish();
      socket.write_all(out.data(), out.size());
      return true;
    }

    default:
      throw net::WireProtocolError("unknown or misdirected frame type " +
                                   std::to_string(type));
  }
}

}  // namespace gnn4ip::dist
