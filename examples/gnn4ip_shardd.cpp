// gnn4ip_shardd — one corpus shard server process.
//
//   gnn4ip_shardd --listen <port> [--load-shard <file>]
//                 [--fingerprint <fp>]
//
// Binds 127.0.0.1:<port> (0 = ephemeral), prints the chosen address on
// stdout as "gnn4ip_shardd listening on 127.0.0.1:<port>" (flushed, so
// launch scripts can grep it), then serves G4IPWIRE requests until
// SIGINT/SIGTERM. --load-shard warm-starts the store from one binary
// shard file of a corpus snapshot (docs/FORMATS.md); --fingerprint pins
// the model fingerprint this shard will accept at Hello time (default:
// adopt the first client's). The port must parse whole as a number in
// 0..65535; anything else is a usage error.
//
// Exit codes match gnn4ip_cli: 2 usage, 3 error, 4 snapshot error,
// 5 connection/wire error.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "core/snapshot_format.h"
#include "dist/shard_server.h"
#include "net/wire_format.h"

namespace {

using namespace gnn4ip;

// Written by the signal handler, polled by main — the handler itself
// must stay async-signal-safe, so it only flips this flag.
volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: gnn4ip_shardd --listen <port> [--load-shard <file>]\n"
               "                     [--fingerprint <fp>]\n");
  return 2;
}

/// The TCP port in `text`, or exit 2: the whole token must parse as a
/// number in 0..65535 (0 = ephemeral).
std::uint16_t parse_port(const std::string& text) {
  std::uint16_t port = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, port);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "error: invalid value '%s' for --listen\n",
                 text.c_str());
    std::exit(2);
  }
  return port;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uint16_t> port;
  std::string shard_file;
  dist::ShardServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      port = parse_port(next_value());
    } else if (arg == "--load-shard") {
      shard_file = next_value();
    } else if (arg == "--fingerprint") {
      options.fingerprint = next_value();
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return usage();
    }
  }
  if (!port) return usage();

  try {
    dist::ShardServer server(*port, options);
    if (!shard_file.empty()) {
      server.load_shard(shard_file);
      std::fprintf(stderr, "loaded shard file %s\n", shard_file.c_str());
    }
    std::printf("gnn4ip_shardd listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread serving([&server] { server.serve(); });
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    serving.join();
    std::fprintf(stderr, "gnn4ip_shardd: stopped\n");
    return 0;
  } catch (const core::SnapshotError& e) {
    std::fprintf(stderr, "snapshot error: %s\n", e.what());
    return 4;
  } catch (const net::WireError& e) {
    std::fprintf(stderr, "connection error: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
