// Reusable worker pool for embarrassingly-parallel index loops.
//
// The embedding pipeline fans out over independent graphs
// (Trainer::embed_all, the audit layer's batch embed) and corpus
// screening over shards. Workers claim indices through an atomic
// counter, so the schedule adapts to uneven per-index cost; because
// every index writes only its own output slot, results are bit-identical
// for any worker count — parallelism never changes the arithmetic.
//
// Thread-count resolution: an explicit count wins; 0 defers to the
// GNN4IP_THREADS environment variable, then to hardware concurrency.
// A process-wide pool (ThreadPool::shared()) serves the default case so
// repeated fan-outs reuse the same threads instead of respawning them.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace gnn4ip::util {

class ThreadPool {
 public:
  /// Spawn `num_threads − 1` persistent workers (the caller of
  /// parallel_for is always the remaining worker). 0 resolves through
  /// default_thread_count(). A pool of size 1 runs everything inline.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run fn(i) for every i in [0, count), blocking until all complete.
  /// The first exception thrown by any fn(i) is rethrown here (remaining
  /// indices are abandoned). Concurrent external callers are serialized
  /// (the pool runs one batch at a time), so the shared() pool is safe
  /// to use from several application threads. Not reentrant: fn must
  /// not call back into the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// GNN4IP_THREADS if set to a positive integer, else hardware
  /// concurrency (at least 1).
  [[nodiscard]] static std::size_t default_thread_count();

  /// Process-wide pool sized by default_thread_count().
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();
  // Reads fn_/count_ lock-free under the epoch publication protocol the
  // static analysis cannot see (comment at the fields below).
  void run_current_batch() GNN4IP_NO_THREAD_SAFETY_ANALYSIS;

  Mutex batch_mu_{lock_rank::kPoolBatch};  // serializes parallel_for callers
  Mutex mu_{lock_rank::kPoolWork};
  CondVar work_cv_;
  CondVar done_cv_;
  // Batch state, guarded by mu_ except the atomic claim counter. fn_ and
  // count_ are additionally *read* lock-free inside run_current_batch:
  // the batch owner writes them under mu_ before bumping epoch_, a
  // worker observes the epoch bump under mu_ in worker_loop's wait, and
  // the fields stay frozen until every worker has decremented active_ —
  // a publication handshake the capability analysis cannot express, so
  // run_current_batch opts out (everything else is checked).
  const std::function<void(std::size_t)>* fn_ GNN4IP_GUARDED_BY(mu_) = nullptr;
  std::size_t count_ GNN4IP_GUARDED_BY(mu_) = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ GNN4IP_GUARDED_BY(mu_) = 0;
  std::uint64_t epoch_ GNN4IP_GUARDED_BY(mu_) = 0;
  bool stop_ GNN4IP_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ GNN4IP_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

/// Convenience fan-out: num_threads == 0 uses ThreadPool::shared();
/// 1 runs inline; any other count runs on a transient pool of that size
/// (used by tests and benches that pin the worker count).
void parallel_for(std::size_t count, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn);

/// Deterministic indexed map + reduce: map_fn(i) runs for every i in
/// [0, count) on the pool (any schedule), then — once all indices have
/// completed — reduce_fn(i) runs for i = 0, 1, …, count−1 sequentially
/// on the calling thread. Because the fold order is fixed by index and
/// never by the schedule, a floating-point reduction built on this
/// helper is bit-identical for any worker count. This is the reduction
/// pattern behind the parallel training step (per-graph gradient
/// shadows folded into the parameters in graph order).
void parallel_map_reduce(std::size_t count, std::size_t num_threads,
                         const std::function<void(std::size_t)>& map_fn,
                         const std::function<void(std::size_t)>& reduce_fn);

/// Same, on a caller-owned pool — for hot loops that would otherwise
/// respawn a transient pool per call (the trainer runs two fan-outs per
/// optimizer step).
void parallel_map_reduce(std::size_t count, ThreadPool& pool,
                         const std::function<void(std::size_t)>& map_fn,
                         const std::function<void(std::size_t)>& reduce_fn);

}  // namespace gnn4ip::util
