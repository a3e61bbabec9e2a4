// Runtime lock-order validation — the dynamic half of the concurrency
// contract story (the static half is thread_annotations.h).
//
// Every util::Mutex/util::SharedMutex can carry a LockRank: a small
// integer position in the one global acquisition order documented in
// docs/ARCHITECTURE.md ("Lock order"). The canonical corpus spine is
//
//   epoch_mu_  <  index_mu_  <  shard stripes (ascending shard id)
//
// and the full table below extends it to every lock in the tree,
// ascending = outermost-first:
//
//   rank         lock                                   holder
//   ----         ----                                   ------
//   0   close    AsyncAuditor::close_mu_                close()/join race
//   10  handoff  AsyncAuditor::handoff_mu_              {pop, reserve} atom
//   20  sync     AuditService::sync_mu_                 {drain, reserve} atom
//   30  queue    util::BoundedQueue<T>::mu_             queue internals
//   40  commit   AuditService::commit_mu_               the ticket turnstile
//   50  state    AuditService::state_mu_                names/pins/evictable
//   60  dist     DistCorpus::ChannelSet::mu             wire + row mirror
//   100 epoch    ShardedCorpus::epoch_mu_               corpus quiesce gate
//   101 index    ShardedCorpus::index_mu_               global id space
//   110+s        ShardedCorpus stripe for shard s       per-shard rows
//   2^24   pool-spawn  ShardedCorpus::pool_mu_          lazy pool creation
//   2^24+1 pool-batch  ThreadPool::batch_mu_            one batch at a time
//   2^24+2 pool-work   ThreadPool::mu_                  worker wakeups
//   2^25   progress    AsyncAuditor::progress_mu_       submitted/reported
//
// The pool/progress block sits above every corpus rank because scans
// fan out to the pool *while holding stripes*. A rank of -1 (the
// default) opts a lock out of validation entirely.
//
// When the build defines GNN4IP_LOCK_ORDER (CMake -DGNN4IP_LOCK_ORDER=ON,
// default ON whenever GNN4IP_SANITIZE is enabled), the wrappers call
// LockOrderRegistry before every blocking acquisition: a thread may only
// acquire a rank strictly greater than every rank it already holds.
// Violations abort with both the held stack and the attempted
// acquisition printed — a deterministic failure on the *first* inverted
// acquisition, not a probabilistic deadlock under load. In normal
// builds the registry compiles away to nothing.
#pragma once

#include <cstddef>

namespace gnn4ip::util {

/// A lock's position in the global acquisition order. order < 0 means
/// "unranked" — the validator ignores the lock (used for locks whose
/// ordering is dynamic in a way the table cannot express, never for
/// laziness).
struct LockRank {
  int order = -1;
  const char* name = "unranked";
};

namespace lock_rank {
inline constexpr LockRank kClose{0, "auditor-close"};
inline constexpr LockRank kHandoff{10, "auditor-handoff"};
inline constexpr LockRank kSync{20, "service-sync"};
inline constexpr LockRank kQueue{30, "bounded-queue"};
inline constexpr LockRank kCommit{40, "commit-turnstile"};
inline constexpr LockRank kState{50, "service-state"};
/// DistCorpus's connection/metadata lock: below the service state (the
/// audit layer calls into the distributed corpus holding state_mu_),
/// above the epoch block so a distributed corpus could layer on an
/// in-process one without inverting the table.
inline constexpr LockRank kDist{60, "dist-corpus"};
inline constexpr LockRank kEpoch{100, "corpus-epoch"};
inline constexpr LockRank kIndex{101, "corpus-index"};

/// Stripes slot in directly above the index lock, ascending by shard —
/// the validator checks the documented "stripes in ascending shard id"
/// order for free.
inline constexpr int kStripeBase = 110;
inline constexpr LockRank stripe(std::size_t shard) {
  return LockRank{kStripeBase + static_cast<int>(shard), "corpus-stripe"};
}

// Leaf block: acquired innermost (from scan fan-out and pool workers).
inline constexpr LockRank kPoolSpawn{1 << 24, "corpus-pool-spawn"};
inline constexpr LockRank kPoolBatch{(1 << 24) + 1, "pool-batch"};
inline constexpr LockRank kPoolWork{(1 << 24) + 2, "pool-work"};
inline constexpr LockRank kProgress{1 << 25, "auditor-progress"};
}  // namespace lock_rank

#ifdef GNN4IP_LOCK_ORDER
/// Per-thread held-lock bookkeeping. All methods are static and touch
/// only thread_local state — no synchronization, no allocation after
/// the first few acquisitions on a thread.
class LockOrderRegistry {
 public:
  /// Record intent to acquire `rank` (call *before* blocking on the
  /// lock). Aborts, printing the held stack, if `rank.order` is not
  /// strictly greater than every held rank.
  static void note_acquire(const LockRank& rank);

  /// Record release of `rank`. Out-of-order release (from the middle of
  /// the stack) is legal and supported.
  static void note_release(const LockRank& rank);

  /// Number of ranked locks the calling thread currently holds
  /// (test hook).
  static std::size_t held_count();
};
#endif  // GNN4IP_LOCK_ORDER

}  // namespace gnn4ip::util
