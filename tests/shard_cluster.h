// Test fixture: N real dist::ShardServer instances on ephemeral loopback
// ports, each serving on its own thread until the fixture dies — the
// bytes-over-TCP path production takes, minus process isolation.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "dist/dist_corpus.h"
#include "dist/shard_server.h"

namespace gnn4ip {

struct Cluster {
  explicit Cluster(std::size_t count, dist::ShardServerOptions options = {}) {
    options.poll_ms = 20;
    for (std::size_t s = 0; s < count; ++s) {
      servers.push_back(std::make_unique<dist::ShardServer>(0, options));
    }
    for (auto& server : servers) {
      threads.emplace_back([&server] { server->serve(); });
    }
  }
  ~Cluster() {
    for (auto& server : servers) server->stop();
    for (std::thread& t : threads) t.join();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::vector<dist::Endpoint> endpoints() const {
    std::vector<dist::Endpoint> eps;
    for (const auto& server : servers) {
      eps.push_back({"127.0.0.1", server->port()});
    }
    return eps;
  }

  std::vector<std::unique_ptr<dist::ShardServer>> servers;
  std::vector<std::thread> threads;
};

}  // namespace gnn4ip
