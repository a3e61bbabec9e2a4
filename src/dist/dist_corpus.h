// dist::DistCorpus — the distributed CorpusBackend: K shard-server
// processes behind one global index.
//
// The front end keeps the authoritative global index space as a local
// MIRROR — entries (shard, local), names, the float rows themselves,
// and liveness — and uses ShardedCorpus::placement() as the partition
// map, so a design lands on the same shard id whether the corpus is
// in-process or distributed. Shard servers hold the same rows and run
// the same per-shard sweeps (core/shard_sweep.h, behind
// dist::ShardServer), and the front end merges their partials with the
// same core::merge_screen/merge_top_k as ShardedCorpus, so verdicts are
// bit-identical to the in-process path for any shard-process count.
//
// Perf shape (Galois NetworkInterfaceBuffered):
//   * one-way mutations (AdmitRows/Remove/Compact) append frames to a
//     per-connection send buffer, flushed when it crosses
//     kFlushThresholdBytes or at the latest before the next request on
//     that connection — many small admissions ride one send(2);
//   * the bulk probe block (Screen's N×D new-rows slab) goes out as a
//     writev tail straight from the mirror, never copied into the
//     buffer;
//   * fan-out requests are pipelined: every shard's request is written
//     before any response is read, so shard processes compute
//     concurrently (at most one in-flight request per connection, which
//     keeps both peers' socket buffers drainable — no pipelining
//     deadlock).
//
// Concurrency: one mutex (lock_rank::kDist, above the audit service
// state rank) serializes every operation — frames on a connection must
// not interleave, and the lock lives in the *shared* ChannelSet so a
// restored() replacement and its predecessor serialize on the same
// lock. The audit layer's state lock lets const reads overlap, and
// every read here speaks on the shared sockets, so this lock is what
// keeps two concurrent top_k readers from interleaving their frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/corpus_backend.h"
#include "core/cosine_kernels.h"
#include "core/global_index.h"
#include "net/socket.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace gnn4ip::dist {

/// One shard server's address.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse "host:port,host:port,..." (the --connect vocabulary). Throws
/// net::WireConnectionError on a malformed list.
[[nodiscard]] std::vector<Endpoint> parse_endpoints(std::string_view spec);

class DistCorpus final : public core::CorpusBackend {
 public:
  /// Connect to one shard server per endpoint, handshake (magic,
  /// version, byte order, model fingerprint), and require every server
  /// to be EMPTY — a fresh DistCorpus owns its cluster's contents.
  /// `allow_resident` (the CLI's --load-corpus + --connect path)
  /// tolerates pre-loaded servers (`gnn4ip_shardd --load-shard`), but
  /// every mutation throws until restored() has reconciled the resident
  /// rows against a snapshot — the mirror must never drift from what
  /// the servers hold. Throws the typed net::WireError taxonomy on any
  /// refusal.
  [[nodiscard]] static std::unique_ptr<DistCorpus> connect(
      const std::vector<Endpoint>& endpoints, std::string model_fingerprint,
      const core::ScorerOptions& options = {}, bool allow_resident = false);

  ~DistCorpus() override;

  // ---- Global index space (mirror-authoritative) ------------------------
  std::size_t add(std::string name, const tensor::Matrix& embedding) override;
  void remove(std::size_t i) override;
  std::vector<std::size_t> compact() override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::size_t dim() const override;
  [[nodiscard]] std::size_t live_count() const override;
  [[nodiscard]] bool live(std::size_t i) const override;
  [[nodiscard]] const std::string& name(std::size_t i) const override;

  // ---- Shard introspection ----------------------------------------------
  [[nodiscard]] std::size_t num_shards() const override;
  /// The shard holding global row `i`, and shard `s`'s live rows.
  [[nodiscard]] std::size_t shard_of(std::size_t i) const;
  [[nodiscard]] std::size_t shard_live_count(std::size_t s) const;

  // ---- Scoring (bit-identical to ShardedCorpus) -------------------------
  [[nodiscard]] std::vector<core::ScreenRow> screen_new_rows(
      std::size_t first_new, float delta) const override;
  [[nodiscard]] std::vector<core::PairScore> top_k(std::size_t i,
                                                   std::size_t k)
      const override;

  // ---- Persistence ------------------------------------------------------
  /// Each server writes its own shard file into `dir` (v1 assumes a
  /// directory all processes can reach — localhost or shared storage);
  /// the front end writes the manifest from the mirror and cross-checks
  /// every SaveAck's row tallies against it.
  void save(const std::string& dir,
            std::string_view model_fingerprint) const override;

  /// A fresh DistCorpus on the SAME shard connections, loaded from a
  /// snapshot directory. The snapshot is first parsed and fully
  /// validated in-process (every malformed case throws its typed
  /// SnapshotError with nothing pushed); then, if the snapshot's shard
  /// count matches the server count AND every server already reports
  /// exactly the matching per-shard row/live/dim tallies (the
  /// `gnn4ip_shardd --load-shard` warm path — the operator contract is
  /// that those servers loaded files of THIS snapshot), the resident
  /// rows are adopted without a push; otherwise every server is Reset
  /// and the rows are re-pushed in global insertion order.
  [[nodiscard]] std::unique_ptr<core::CorpusBackend> restored(
      const std::string& dir,
      std::string_view expected_fingerprint) const override;

  void fan_out(std::size_t count,
               const std::function<void(std::size_t)>& fn) const override;

 private:
  /// One shard connection plus its aggregation buffer.
  struct Channel {
    net::Socket sock;
    std::vector<std::uint8_t> sendbuf;
    Endpoint endpoint;  // for error messages
  };
  /// The connections and the one mutex serializing all use of them.
  /// Held by shared_ptr so restored() can hand the SAME channels (and
  /// the same lock) to the replacement corpus — a caller still reading
  /// through the old instance serializes against the new one instead of
  /// interleaving frames mid-conversation. `channels` is guarded by
  /// `mu` (unannotated for the same cross-instance reason as the
  /// mirror fields below).
  struct ChannelSet {
    mutable util::Mutex mu{util::lock_rank::kDist};
    std::vector<Channel> channels;
  };

  DistCorpus(std::shared_ptr<ChannelSet> channels,
             const core::ScorerOptions& options, std::string fingerprint);

  // All helpers below assume the caller holds shared_->mu (they speak
  // on the wire and/or touch the mirror).
  void flush_locked(Channel& ch) const;
  void buffer_flush_locked(Channel& ch) const;
  /// Throws WireProtocolError while unreconciled_ — mutating or scoring
  /// against servers whose resident rows the mirror has not adopted
  /// would silently drift or silently ignore them.
  void check_reconciled_locked() const;
  /// Mirror-side admit: updates every mirror structure, returns the
  /// global id. The caller sends the matching AdmitRows frame.
  std::size_t admit_mirror_locked(std::string name, std::span<const float> row);

  core::ScorerOptions options_;
  std::string fingerprint_;

  std::shared_ptr<ChannelSet> shared_;

  // ---- The mirror -------------------------------------------------------
  // Everything below is guarded by shared_->mu. That capability lives
  // behind a shared_ptr the analysis cannot unify across instances
  // (restored() fills the replacement's mirror under the predecessor's
  // hold of the SAME mutex), so these stay unannotated per the
  // thread_annotations.h convention — the runtime lock-order validator
  // still covers the mutex itself (rank kDist).
  /// True when connect(allow_resident) found rows already on a server:
  /// the servers hold state the mirror does not, so mutations and
  /// scoring refuse until restored() reconciles (adopt or reset).
  bool unreconciled_ = false;
  std::size_t dim_ = 0;
  std::size_t live_count_ = 0;
  /// Lowest removed global not yet compacted away; kNoIndex when every
  /// row is live.
  std::size_t first_removed_ = kNoIndex;
  std::vector<core::EntryRef> entries_;
  /// Per shard: local index -> global index, ascending.
  std::vector<std::vector<std::size_t>> globals_;
  /// Row-major size()×dim() float mirror — probe source for every
  /// request.
  std::vector<float> rows_;
  /// Names in a deque: name(i) hands out references that stay valid
  /// across admissions (invalidated only by compact, like ShardedCorpus).
  std::deque<std::string> names_;
  std::vector<char> live_;
  std::vector<std::size_t> shard_live_;

  /// Worker resolution for fan_out — same lazy-pool shape as
  /// ShardedCorpus (the audit layer's batch fan-outs ride it).
  mutable util::Mutex pool_mu_{util::lock_rank::kPoolSpawn};
  mutable std::unique_ptr<util::ThreadPool> pool_ GNN4IP_GUARDED_BY(pool_mu_);
};

}  // namespace gnn4ip::dist
