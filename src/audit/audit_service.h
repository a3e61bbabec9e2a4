// audit::AuditService — the production entry point of this repo:
// Verilog in, piracy verdicts out (paper §IV, Alg. 1, applied at corpus
// scale the way the ICCAD'22 GNN-hardware-security survey describes
// production IP-infringement screening).
//
// The service owns the three pieces every deployment needs and the
// examples used to hand-wire: a loaded Hw2Vec model, a resident corpus
// (a core::ShardedCorpus — K EmbeddingStore shards of one D-float row
// per design), and the shared worker pool. The flow is:
//
//   audit::AuditService service(model);            // or from_model_file
//   service.add_library("crc8", crc8_verilog);     // pinned resident IP
//   service.submit("incoming#1", verilog_text);    // bounded MP queue
//   for (const auto& report : service.screen())    // batch: parse →
//     ...                                          //  featurize → embed
//                                                  //  → score → admit
//
// Error handling is Result-style per submission: a malformed design
// yields a Diagnostic in its ScreenReport and never kills the batch.
// The resident cache is bounded by max_resident; the victim is always
// the oldest unpinned row by admission order, and pinned library
// entries are never evicted.
//
// Commit semantics (the determinism contract): every submission commits
// *individually*, in admission-ticket order — admit, score against the
// residents present at that instant, evict, compact. A batch of N is
// therefore bit-identical to N batches of one, which is what makes the
// verdict set for a fixed submission stream invariant across batching,
// shard count, worker count, *and consumer count*: any interleaving of
// K consumers produces the same per-ticket corpus states a sequential
// single-consumer run would. (Before the multi-consumer refactor,
// screen() scored a whole batch against the pre-batch corpus; verdicts
// now include batch-mates admitted under earlier tickets.)
//
// Threading: submit() is safe from any number of producer threads.
// screen() and screen_batch() are re-entrant — K consumer threads may
// screen disjoint batches concurrently. The expensive phase (compile +
// featurize + embed) runs fully parallel across consumers on per-call
// scratch state; the commit phase serializes through a ticket turnstile
// (tickets from reserve_tickets() commit in order), which is the single
// serialized commit point guarding the eviction order and the name
// index. add_library() rides the same turnstile, so growing the pinned
// library mid-stream is safe too. top_k()/contains()/index_of()/
// pinned()/index-stable reads take the state lock shared and may run
// concurrently with screening. audit::AsyncAuditor stands a pool of
// daemon consumers on top of screen_batch().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/pipeline.h"
#include "core/sharded_corpus.h"
#include "gnn/hw2vec.h"
#include "train/dataset.h"
#include "util/bounded_queue.h"
#include "util/thread_annotations.h"

namespace gnn4ip::audit {

struct AuditOptions {
  /// Scoring knobs shared with the core scoring layers — worker threads
  /// and the decision boundary δ live here once instead of being
  /// re-declared per layer.
  core::ScorerOptions scorer;
  /// Shards of the resident corpus (deterministic name-hash placement).
  /// Verdicts are bit-identical for any value; more shards buy parallel
  /// scoring fan-out.
  std::size_t num_shards = 1;
  /// Resident-cache bound (live rows). 0 = unbounded. Over the bound,
  /// the oldest unpinned row by admission order is evicted (the service
  /// never refreshes a row on a screening hit; resubmitting a name makes
  /// it the newest). Pinned library entries count toward the bound but
  /// are never evicted, so a fully pinned corpus may exceed it.
  std::size_t max_resident = 0;
  /// Capacity of the bounded submission queue; submit() refuses work
  /// beyond this until the consumer screens.
  std::size_t queue_capacity = 256;
};

/// One design handed to screen_batch(): either Verilog source to
/// compile or pre-featurized tensors. This is the unit multi-consumer
/// front ends (audit::AsyncAuditor) build batches from without going
/// through the service's own submission queue.
struct AuditItem {
  std::string name;
  std::string source;         // valid when from_source
  gnn::GraphTensors tensors;  // valid otherwise
  bool from_source = false;
};

/// Per-submission outcome: admitted to the corpus, or rejected with a
/// diagnostic. One bad design never affects its batch-mates.
struct Submission {
  std::string name;
  bool accepted = false;  // compiled + embedded + admitted
  /// Corpus index as of this submission's commit; kNoIndex when the
  /// entry was rejected or evicted by its own commit. Later commits
  /// (same batch or a concurrent consumer's) may evict or renumber the
  /// entry — resolve current positions via AuditService::index_of.
  std::size_t corpus_index = core::ShardedCorpus::kNoIndex;
  Diagnostic error;  // valid when !accepted
};

/// One similarity verdict against a resident corpus entry.
struct Verdict {
  std::string matched;  // corpus entry name at scoring time
  /// Index of the matched entry as of the submission's commit; kNoIndex
  /// if that commit itself evicted it. Stale after later commits.
  std::size_t corpus_index = core::ShardedCorpus::kNoIndex;
  float similarity = 0.0F;  // Ŷ ∈ [−1, 1]
  bool flagged = false;     // Ŷ > δ (Alg. 1 decision)
};

/// screen() output for one submission, in submission order.
struct ScreenReport {
  Submission submission;
  /// Residents scoring above δ at this submission's commit (everything
  /// admitted under an earlier ticket, batch-mates included),
  /// descending similarity (ascending corpus index on ties). Empty when
  /// nothing flags or the submission was rejected.
  std::vector<Verdict> verdicts;
  /// Nearest resident entry even when nothing flags (the "closest
  /// miss"); nullopt when the resident corpus was empty at commit time
  /// or the submission was rejected.
  std::optional<Verdict> best;
};

class AuditService {
 public:
  /// Serialized per-commit delivery hook for screen_batch: fired inside
  /// the commit turnstile (so invocations across all consumers are
  /// mutually exclusive and in global ticket order) with the item's
  /// index within its batch and the finished report, which it consumes.
  using CommitCallback = std::function<void(std::size_t, ScreenReport&&)>;

  /// Takes ownership of a trained model.
  explicit AuditService(gnn::Hw2Vec model, const AuditOptions& options = {});

  /// Backend seam: run the same commit turnstile, eviction, and snapshot
  /// layers over a caller-built corpus backend — an in-process
  /// core::ShardedCorpus or a dist::DistCorpus of remote shard servers.
  /// `options.num_shards` is overridden by the backend's own shard count
  /// (the backend is the truth); `corpus` must be non-null and empty.
  AuditService(gnn::Hw2Vec model, const AuditOptions& options,
               std::unique_ptr<core::CorpusBackend> corpus);

  /// Deployment path: load weights persisted by gnn::save_model_file.
  [[nodiscard]] static AuditService from_model_file(
      const std::string& path, const AuditOptions& options = {});

  // ---- Resident library -------------------------------------------------
  /// Compile + embed + admit inline and pin (never evicted). Returns the
  /// per-design outcome; a parse failure reports a Diagnostic and leaves
  /// the corpus untouched. Re-adding a resident name replaces its row.
  /// Takes one admission ticket, so it is safe concurrently with
  /// screening consumers (the row lands between two commits).
  Submission add_library(std::string name, const std::string& verilog_source);
  Submission add_library(std::string name, gnn::GraphTensors tensors);
  Submission add_library(const train::GraphEntry& entry);

  // ---- Submission queue -------------------------------------------------
  /// Enqueue a design for the next screen(). Thread-safe (multi-
  /// producer). Returns false when the bounded queue is full — the
  /// caller should screen() (or drop) and retry.
  [[nodiscard]] bool submit(std::string name, std::string verilog_source);
  [[nodiscard]] bool submit(std::string name, gnn::GraphTensors tensors);
  [[nodiscard]] bool submit(const train::GraphEntry& entry);

  /// Submissions waiting for the next screen().
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  // ---- Screening --------------------------------------------------------
  /// Drain the queue as one batch and screen it (screen_batch below with
  /// freshly reserved tickets). Reports align with submission order;
  /// each submission commits individually in ticket order, so a
  /// resubmitted name replaces its earlier row at its own commit and
  /// later batch-mates score against it.
  std::vector<ScreenReport> screen();

  /// Reserve `n` consecutive admission tickets; returns the first.
  /// Tickets are the global commit order: screen_batch commits item i
  /// under ticket first_ticket + i, and a commit waits until every
  /// earlier ticket has committed. Callers must reserve in the same
  /// order they dequeued the submissions (AsyncAuditor holds one
  /// hand-off lock across {pop batch, reserve}) and must eventually
  /// commit every reserved ticket — screen_batch guarantees this even
  /// on the exception path.
  [[nodiscard]] std::size_t reserve_tickets(std::size_t n);

  /// Screen one batch re-entrantly: compile + featurize + embed on this
  /// thread's scratch state (fully concurrent across consumers), then
  /// commit each item in ticket order through the turnstile — admit,
  /// score against the residents of that instant, evict, compact. With
  /// `on_commit` set, each report is handed off inside its commit slot
  /// (serialized across consumers, global ticket order) and the
  /// returned vector holds moved-from placeholders; otherwise reports
  /// are returned in batch order with indices remapped to the corpus
  /// state at the *end* of the batch (the single-consumer contract:
  /// entries evicted by a later batch-mate read kNoIndex).
  std::vector<ScreenReport> screen_batch(std::vector<AuditItem> batch,
                                         std::size_t first_ticket,
                                         const CommitCallback& on_commit);

  /// The k resident entries most similar to resident entry `name`
  /// (itself excluded), descending similarity, flagged per δ. Safe
  /// concurrently with screening (takes the state lock shared — commits
  /// wait, readers overlap).
  [[nodiscard]] std::vector<Verdict> top_k(const std::string& name,
                                           std::size_t k) const;

  // ---- Durable corpus (snapshot + warm restart) -------------------------
  /// Write the resident corpus (one binary file per shard + manifest,
  /// core::ShardedCorpus::save) and the service state (pins + name
  /// index) to directory `dir`. Runs as one serialized commit under the
  /// admission turnstile, so the snapshot is always a consistent
  /// post-commit state: every earlier ticket is fully in it, every
  /// later ticket fully absent. The manifest records this service's
  /// model fingerprint. Safe concurrently with screening consumers and
  /// producers.
  void save_corpus(const std::string& dir);

  /// Warm restart: replace the resident corpus, name index, pins, and
  /// eviction order with a snapshot written by save_corpus(). The
  /// snapshot must have been written against a model with this
  /// service's fingerprint (core::SnapshotFingerprintError otherwise);
  /// every malformed-snapshot case throws a distinct typed
  /// core::SnapshotError and leaves the service unchanged. Post-load
  /// screening and top_k are bit-identical to the never-restarted
  /// service — rows round-trip as exact bytes and the restored corpus
  /// adopts the snapshot's shard count (options().num_shards follows).
  /// Runs as one serialized commit, like save_corpus(), and is safe
  /// concurrently with screening consumers and producers: a batch
  /// already embedding keeps the corpus it started on alive until its
  /// embed phase ends, and commits against the restored one.
  void load_corpus(const std::string& dir);

  /// Fingerprint of the owned model (gnn::model_fingerprint), as
  /// recorded in snapshot manifests.
  [[nodiscard]] const std::string& model_fingerprint() const {
    return model_fingerprint_;
  }

  // ---- Pinning & introspection ------------------------------------------
  /// Protect a resident entry from eviction.
  void pin(const std::string& name);
  /// Make an entry evictable again, at its admission-order position.
  void unpin(const std::string& name);
  [[nodiscard]] bool pinned(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const;
  /// Current corpus index of a resident entry (kNoIndex when absent).
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  [[nodiscard]] std::size_t resident() const {
    util::ReaderLock state(state_mu_);
    return corpus_->live_count();
  }
  /// Name of the entry at corpus index `i`: a copy taken under the state
  /// lock, since a concurrent commit may move or free the corpus's own
  /// string as soon as the lock is released.
  [[nodiscard]] std::string name(std::size_t i) const {
    util::ReaderLock state(state_mu_);
    return corpus_->name(i);
  }
  [[nodiscard]] float delta() const { return options_.scorer.delta; }
  /// Configuration-time knob: not synchronized against in-flight
  /// screening consumers.
  void set_delta(float delta) { options_.scorer.delta = delta; }
  [[nodiscard]] const AuditOptions& options() const { return options_; }
  [[nodiscard]] gnn::Hw2Vec& model() { return model_; }
  /// The resident corpus backend (tests and benches compare against the
  /// raw core scoring paths through this). Unsynchronized: read it only
  /// while no commit or load_corpus() can run — tests and examples read
  /// it after quiesce. The reference is replaced, not mutated, by
  /// load_corpus(); re-fetch it after a warm restart.
  [[nodiscard]] const core::CorpusBackend& corpus() const
      GNN4IP_NO_THREAD_SAFETY_ANALYSIS {
    return *corpus_;
  }

 private:
  /// Block until `ticket` is the next to commit (turnstile entry).
  void commit_begin(std::size_t ticket);
  /// Release the turnstile to the next ticket.
  void commit_end();
  /// Commit one accepted submission under the turnstile (caller holds
  /// its ticket's commit slot): admit, score vs the current residents,
  /// evict, compact, and write the report. `prior` (when non-null) is
  /// the already-committed prefix of this batch whose indices must chase
  /// this commit's compaction mapping (single-consumer screen()
  /// contract).
  void commit_one(const std::string& name, const tensor::Matrix& embedding,
                  ScreenReport& report, std::vector<ScreenReport>* prior,
                  std::size_t prior_count);

  /// Admit an embedding under `name`, replacing any resident row of the
  /// same name (a pin follows the name onto the new row). Returns the
  /// (pre-compaction) row index. Caller holds the commit slot and
  /// state_mu_ exclusively.
  std::size_t admit(const std::string& name, const tensor::Matrix& embedding)
      GNN4IP_REQUIRES(state_mu_);
  /// Tombstone the resident row at `index` and forget its name. Caller
  /// holds state_mu_ exclusively.
  void drop(std::size_t index) GNN4IP_REQUIRES(state_mu_);
  /// Remove `index` from evictable_ if it is there.
  void forget_evictable(std::size_t index) GNN4IP_REQUIRES(state_mu_);
  /// Evict down to max_resident (never pinned entries), then compact
  /// the corpus and remap the name index. Returns the old→new mapping;
  /// empty when nothing was removed (indices unchanged). Caller holds
  /// the commit slot and state_mu_ exclusively.
  std::vector<std::size_t> enforce_capacity_and_compact()
      GNN4IP_REQUIRES(state_mu_);

  AuditOptions options_;
  gnn::Hw2Vec model_;
  /// Computed once at construction; snapshots record and validate it.
  std::string model_fingerprint_;
  util::BoundedQueue<AuditItem> queue_;

  /// The one lock of the resident corpus and the service state around
  /// it (corpus_, index_by_name_, pinned_, evictable_): exclusive inside
  /// a commit slot and in pin/unpin (commit mutations are already
  /// serialized by the turnstile; the lock exists for the readers),
  /// shared in top_k/contains/index_of/pinned/name/resident. The corpus
  /// takes no lock of its own on its rows, so every corpus call holds
  /// this one.
  mutable util::SharedMutex state_mu_{util::lock_rank::kState};
  /// Shared so load_corpus() can build + validate a fresh corpus off to
  /// the side and swap it in only once every typed check has passed,
  /// while screen_batch's embed phase, which copies the pointer under
  /// state_mu_ shared and then fans out on it with no lock held, keeps
  /// the corpus it started on alive across that swap.
  std::shared_ptr<core::CorpusBackend> corpus_ GNN4IP_GUARDED_BY(state_mu_);
  std::unordered_map<std::string, std::size_t> index_by_name_
      GNN4IP_GUARDED_BY(state_mu_);
  std::unordered_set<std::string> pinned_ GNN4IP_GUARDED_BY(state_mu_);
  /// Corpus indices of the live unpinned rows, ascending — the eviction
  /// order. Admissions append, compaction preserves relative order and
  /// the service never refreshes a row on a hit, so ascending index is
  /// admission order and the front is always the oldest evictable row.
  std::vector<std::size_t> evictable_ GNN4IP_GUARDED_BY(state_mu_);

  /// The admission-ticket turnstile: tickets_issued_ is the next ticket
  /// to hand out, next_commit_ the next allowed to commit. Commits
  /// proceed in strictly increasing ticket order across all consumers.
  util::Mutex commit_mu_{util::lock_rank::kCommit};
  util::CondVar commit_cv_;
  std::size_t tickets_issued_ GNN4IP_GUARDED_BY(commit_mu_) = 0;
  std::size_t next_commit_ GNN4IP_GUARDED_BY(commit_mu_) = 0;

  /// Serializes {drain queue_, reserve tickets} in screen() so two
  /// legacy sync callers cannot invert pop order vs ticket order.
  util::Mutex sync_mu_{util::lock_rank::kSync};
};

}  // namespace gnn4ip::audit
