// audit::AsyncAuditor — daemon front end over AuditService.
//
// AuditService is batch-synchronous: producers enqueue, then *someone*
// must call screen() on a consumer thread, and everyone waits on that
// batch boundary. AsyncAuditor removes the boundary. It owns the service
// and a pool of `num_consumers` daemon threads that drain the submission
// queue continuously: one consumer blocks for a batch seed, takes
// whatever accumulated behind it as its chunk, and screens it while its
// siblings pick up the next chunk — so producers only ever block on
// queue *capacity* (bounded-buffer backpressure), never on a batch
// boundary, and latency degrades gracefully into larger batches under
// load instead of stalling submitters.
//
//   audit::AsyncAuditor auditor(std::move(model), options);
//   auditor.service().add_library("crc8", crc8_verilog);   // before submits
//   std::future<ScreenReport> r = auditor.submit("in#1", verilog);
//   ...                                   // producer keeps going; the
//   use(r.get());                         // daemons screen in the back
//
// Results are delivered twice over: every submit() returns a
// std::future<ScreenReport>, and an optional on_report callback fires
// for every report. The callback is *serialized* — invocations are
// mutually exclusive across all consumers and arrive in global
// admission-ticket order (it fires inside the service's commit
// turnstile), so callers need no locking of their own.
//
// Verdict sets are consumer-count-invariant: chunks go through
// AuditService::screen_batch, whose per-submission ticket-ordered
// commits make any interleaving of K consumers produce bit-identical
// verdicts (and post-quiesce top_k) to a sequential single-consumer
// run. Consumers parallelize the expensive compile + featurize + embed
// phase; commits serialize through the turnstile.
//
// Ticket discipline: one hand-off lock serializes {pop a chunk from the
// queue, reserve its tickets}, so ticket order always equals dequeue
// order — a consumer can never wait on a ticket held by a job that is
// still behind it in the queue.
//
// Shutdown is drain-on-close (util::BoundedQueue::close): close() stops
// accepting work, the consumers screen everything already accepted,
// every outstanding future is fulfilled, and all threads join. The
// destructor closes implicitly. Submissions that lose the race with
// close() get a rejected ScreenReport (a Diagnostic, not a broken
// promise).
//
// Threading contract: submit()/close()/quiesce() are safe from any
// producer thread — but NOT from the on_report callback, which runs on
// a consumer thread: close() there would self-join and quiesce() there
// would wait on a report count that only advances after the callback
// returns. service() reads that are documented lock-protected
// (top_k/contains/index_of/resident) are safe while the daemons run;
// add_library is too (it takes its own admission ticket). Anything
// else — use before the first submit(), or after quiesce()/close().
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_service.h"
#include "util/thread_annotations.h"

namespace gnn4ip::audit {

struct AsyncOptions {
  /// Capacity of the daemon's submission queue. Producers block (bounded
  /// backpressure) once this many submissions await the consumers.
  std::size_t queue_capacity = 256;
  /// Screening consumer threads. 0 = the GNN4IP_CONSUMERS environment
  /// variable, else 1. Verdict sets are bit-identical for any value.
  std::size_t num_consumers = 0;
  /// Largest chunk one consumer takes in a single hand-off (0 = the
  /// service's queue_capacity). Smaller chunks spread a backlog across
  /// more consumers; larger chunks amortize per-batch overhead.
  std::size_t max_batch = 0;
  /// Optional push delivery: invoked for every report, serialized
  /// across consumers in global ticket order, before the matching
  /// future resolves. Must not call back into close()/quiesce() (see
  /// the threading contract above).
  std::function<void(const ScreenReport&)> on_report;
};

class AsyncAuditor {
 public:
  /// Takes ownership of the model and stands the daemons up immediately.
  explicit AsyncAuditor(gnn::Hw2Vec model, const AuditOptions& options = {},
                        AsyncOptions async = {});

  /// Deployment path: load weights persisted by gnn::save_model_file.
  [[nodiscard]] static std::unique_ptr<AsyncAuditor> from_model_file(
      const std::string& path, const AuditOptions& options = {},
      AsyncOptions async = {});

  AsyncAuditor(const AsyncAuditor&) = delete;
  AsyncAuditor& operator=(const AsyncAuditor&) = delete;

  /// close() + join.
  ~AsyncAuditor();

  /// Enqueue a design for the consumers; the future resolves once the
  /// submission has committed. Blocks only while the submission queue
  /// is at capacity. After close(), resolves immediately with a
  /// rejected report ("auditor closed") instead of ever losing a design
  /// silently.
  [[nodiscard]] std::future<ScreenReport> submit(std::string name,
                                                std::string verilog_source);
  [[nodiscard]] std::future<ScreenReport> submit(std::string name,
                                                 gnn::GraphTensors tensors);
  [[nodiscard]] std::future<ScreenReport> submit(
      const train::GraphEntry& entry);

  /// Block until every submission accepted so far has been screened and
  /// its future fulfilled — across the whole consumer pool. A safe
  /// point for touching service().
  void quiesce();

  /// Quiesce-then-save: block until every submission accepted so far
  /// has committed, then write a corpus snapshot to `dir` via
  /// AuditService::save_corpus. The save itself rides the admission
  /// turnstile, so it would be consistent even mid-stream; the quiesce
  /// pins the snapshot to "everything this producer has submitted" —
  /// the guarantee a caller checkpointing its own progress needs.
  /// Producer-thread only (same rule as quiesce(): never from
  /// on_report). The daemons keep running; submissions racing the save
  /// land after the snapshot, exactly as if submitted after it.
  void save_corpus(const std::string& dir);

  /// Stop accepting submissions, screen the backlog, fulfil every
  /// outstanding future, and join every consumer. Idempotent.
  void close();

  [[nodiscard]] bool closed() const { return queue_.closed(); }

  /// Submissions accepted / reports delivered since construction.
  [[nodiscard]] std::size_t submitted() const;
  [[nodiscard]] std::size_t reported() const;
  /// Chunks the pool has screened (shows the adaptive batching: slow
  /// screens ⇒ fewer, larger chunks).
  [[nodiscard]] std::size_t batches() const;
  /// Consumer threads in the pool.
  [[nodiscard]] std::size_t consumers() const { return consumers_.size(); }

  /// The owned service. See the threading contract above for which
  /// members are safe while the daemons run.
  [[nodiscard]] AuditService& service() { return service_; }
  [[nodiscard]] const AuditService& service() const { return service_; }

 private:
  struct Job {
    std::string name;
    std::string source;         // valid when from_source
    gnn::GraphTensors tensors;  // valid otherwise
    bool from_source = false;
    std::promise<ScreenReport> promise;
  };

  [[nodiscard]] std::future<ScreenReport> enqueue(Job job);
  void consume();  // consumer thread body (one per pool member)
  void process_batch(std::vector<Job> batch, std::size_t first_ticket);

  AuditService service_;
  AsyncOptions async_;
  util::BoundedQueue<Job> queue_;

  /// Serializes {pop chunk, reserve tickets}: ticket order == dequeue
  /// order, the invariant the commit turnstile depends on.
  util::Mutex handoff_mu_{util::lock_rank::kHandoff};

  mutable util::Mutex progress_mu_{util::lock_rank::kProgress};
  util::CondVar progress_cv_;
  std::size_t submitted_ GNN4IP_GUARDED_BY(progress_mu_) = 0;
  std::size_t reported_ GNN4IP_GUARDED_BY(progress_mu_) = 0;
  std::size_t batches_ GNN4IP_GUARDED_BY(progress_mu_) = 0;

  util::Mutex close_mu_{util::lock_rank::kClose};  // serializes close()
  bool joined_ GNN4IP_GUARDED_BY(close_mu_) = false;
  /// Consumer pool — last member: started after everything above.
  std::vector<std::thread> consumers_;
};

}  // namespace gnn4ip::audit
