// dist::ShardServer — one corpus shard behind a G4IPWIRE socket.
//
// A shard server owns exactly one core::EmbeddingStore and speaks for
// it over the wire: the front end (dist::DistCorpus) admits rows into
// it, and Screen/TopK requests run the very sweeps the in-process
// ShardedCorpus runs per shard (core/shard_sweep.h), so what crosses
// the wire back is only the shard's exact *partials* (flagged matches,
// the shard-local first-max best, top-k prefix), never raw rows. That
// server-side resolution is both the perf point (a 10k-row shard
// screen returns a handful of matches, not 10k floats) and the
// determinism point: a remote shard's partials are the local shard's
// by construction, so the front end's fixed-tie-break merges reproduce
// in-process verdicts bit for bit (docs/ARCHITECTURE.md, "Distributed
// screening").
//
// Addressing: the wire speaks shard-LOCAL row indices only. The front
// end owns the global index space and the placement map; within one
// shard, local insertion order equals global insertion order (the
// ShardedCorpus invariant), so local-index tie-breaks map 1:1 onto
// global ones.
//
// Threading: one acceptor thread feeds accepted connections into a
// util::BoundedQueue; serve() drains it (pop_for-bounded, so stop() is
// honoured within one poll interval) and services one connection at a
// time — a shard has one front end, so connection concurrency buys
// nothing but locks. The store itself is therefore entirely
// unsynchronized here.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/embedding_store.h"
#include "net/socket.h"
#include "util/bounded_queue.h"

namespace gnn4ip::dist {

struct ShardServerOptions {
  /// Model fingerprint this shard serves rows for. Empty = adopt the
  /// first client's fingerprint at Hello time; non-empty = reject any
  /// client whose Hello carries a different one (WireFingerprintError).
  std::string fingerprint;
  /// Accept/drain poll granularity — the upper bound on how long stop()
  /// takes to be observed.
  unsigned poll_ms = 100;
};

class ShardServer {
 public:
  /// Bind 127.0.0.1:`port` (0 = ephemeral; port() reports the choice).
  /// Throws net::WireConnectionError when the bind fails.
  explicit ShardServer(std::uint16_t port,
                       ShardServerOptions options = {});

  /// Pre-load the store from one binary shard file written by
  /// ShardedCorpus::save / the SaveShard command (the `--load-shard`
  /// path). Call before serve(). Throws the typed core::SnapshotError
  /// taxonomy on a damaged file.
  void load_shard(const std::string& path);

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Accept and service connections until stop(). Blocks the calling
  /// thread; run it in a dedicated thread (tests) or let it own main()
  /// (gnn4ip_shardd). A protocol error on one connection answers with a
  /// typed kError frame and closes that connection — the server keeps
  /// serving.
  void serve();

  /// Ask serve() to return (honoured within ~poll_ms). Safe from any
  /// thread and from signal-ish contexts (atomic flag + queue close).
  void stop();

 private:
  void handle_connection(net::Socket socket);
  /// Dispatch one request frame on an established connection. Returns
  /// false when the connection should close (peer gone).
  bool dispatch(net::Socket& socket, std::uint8_t type,
                const std::vector<std::uint8_t>& payload);

  ShardServerOptions options_;
  net::TcpListener listener_;
  core::EmbeddingStore store_;
  std::atomic<bool> stop_{false};
  util::BoundedQueue<net::Socket> pending_{16};
};

}  // namespace gnn4ip::dist
