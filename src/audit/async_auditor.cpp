#include "audit/async_auditor.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "gnn/model_io.h"

namespace gnn4ip::audit {

namespace {

/// Resolve num_consumers = 0: GNN4IP_CONSUMERS if set to a positive
/// integer, else one consumer (the pre-pool behaviour).
std::size_t default_consumer_count() {
  if (const char* env = std::getenv("GNN4IP_CONSUMERS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return 1;
}

}  // namespace

AsyncAuditor::AsyncAuditor(gnn::Hw2Vec model, const AuditOptions& options,
                           AsyncOptions async)
    : service_(std::move(model), options),
      async_(std::move(async)),
      queue_(async_.queue_capacity) {
  const std::size_t pool_size = async_.num_consumers > 0
                                    ? async_.num_consumers
                                    : default_consumer_count();
  consumers_.reserve(pool_size);
  for (std::size_t c = 0; c < pool_size; ++c) {
    consumers_.emplace_back([this] { consume(); });
  }
}

std::unique_ptr<AsyncAuditor> AsyncAuditor::from_model_file(
    const std::string& path, const AuditOptions& options, AsyncOptions async) {
  return std::make_unique<AsyncAuditor>(gnn::load_model_file(path), options,
                                        std::move(async));
}

AsyncAuditor::~AsyncAuditor() { close(); }

std::future<ScreenReport> AsyncAuditor::submit(std::string name,
                                               std::string verilog_source) {
  Job job;
  job.name = std::move(name);
  job.source = std::move(verilog_source);
  job.from_source = true;
  return enqueue(std::move(job));
}

std::future<ScreenReport> AsyncAuditor::submit(std::string name,
                                               gnn::GraphTensors tensors) {
  Job job;
  job.name = std::move(name);
  job.tensors = std::move(tensors);
  return enqueue(std::move(job));
}

std::future<ScreenReport> AsyncAuditor::submit(const train::GraphEntry& entry) {
  return submit(entry.name, entry.tensors);
}

std::future<ScreenReport> AsyncAuditor::enqueue(Job job) {
  std::future<ScreenReport> future = job.promise.get_future();
  // Count the submission as outstanding *before* pushing: a consumer may
  // pop and report it before this thread runs again, and quiesce() must
  // never observe reported_ > submitted_.
  {
    util::MutexLock lock(progress_mu_);
    ++submitted_;
  }
  if (!queue_.push(std::move(job))) {
    // Lost the race with close(): `job` is untouched, so resolve its
    // future with a rejected report instead of a broken promise. The
    // retracted count must still wake quiesce() waiters — the predicate
    // may have just become true, and no report will ever notify again.
    {
      util::MutexLock lock(progress_mu_);
      --submitted_;
    }
    progress_cv_.notify_all();
    ScreenReport report;
    report.submission.name = std::move(job.name);
    report.submission.error.message =
        "AsyncAuditor is closed; submission was not screened";
    job.promise.set_value(std::move(report));
  }
  return future;
}

void AsyncAuditor::consume() {
  const std::size_t chunk_cap = async_.max_batch > 0
                                    ? async_.max_batch
                                    : service_.options().queue_capacity;
  for (;;) {
    std::vector<Job> chunk;
    std::size_t first_ticket = 0;
    {
      // One hand-off at a time: blocking-pop the chunk seed, ride the
      // backlog along via try_pop, and reserve the chunk's tickets —
      // all under one lock, so ticket order equals dequeue order. A
      // sibling consumer waits here (instead of inside pop()) while
      // this one assembles its chunk; it proceeds the moment the
      // hand-off lock drops, concurrently with this chunk's screening.
      util::MutexLock handoff(handoff_mu_);
      std::optional<Job> seed = queue_.pop();
      if (!seed) break;  // closed and fully drained: pool exit signal
      chunk.push_back(std::move(*seed));
      while (chunk.size() < chunk_cap) {
        std::optional<Job> next = queue_.try_pop();
        if (!next) break;
        chunk.push_back(std::move(*next));
      }
      first_ticket = service_.reserve_tickets(chunk.size());
    }
    process_batch(std::move(chunk), first_ticket);
  }
}

void AsyncAuditor::process_batch(std::vector<Job> batch,
                                 std::size_t first_ticket) {
  std::vector<AuditItem> items;
  items.reserve(batch.size());
  for (Job& job : batch) {
    AuditItem item;
    item.name = std::move(job.name);
    item.source = std::move(job.source);
    item.tensors = std::move(job.tensors);
    item.from_source = job.from_source;
    items.push_back(std::move(item));
  }
  // Count commits as they happen so the exception path below knows
  // exactly which futures are still unresolved.
  std::size_t delivered = 0;
  try {
    service_.screen_batch(
        std::move(items), first_ticket,
        [&](std::size_t i, ScreenReport&& report) {
          // Inside the commit turnstile: serialized across consumers,
          // global ticket order — the on_report contract. The callback
          // sees the report before the future resolves.
          if (async_.on_report) async_.on_report(report);
          batch[i].promise.set_value(std::move(report));
          delivered = i + 1;
          {
            // The chunk counts as a batch at its *last* commit, under
            // the same lock as the report count: a quiesce() woken by
            // the final report must already see the batch tallied.
            util::MutexLock lock(progress_mu_);
            ++reported_;
            if (delivered == batch.size()) ++batches_;
          }
          progress_cv_.notify_all();
        });
  } catch (...) {
    // Library-bug path (e.g. ContractViolation): fail this chunk's
    // unresolved futures instead of hanging them, and keep the consumer
    // serving. screen_batch has already advanced the chunk's remaining
    // tickets, so the turnstile keeps moving for the siblings.
    const std::exception_ptr error = std::current_exception();
    for (std::size_t i = delivered; i < batch.size(); ++i) {
      batch[i].promise.set_exception(error);
    }
    {
      util::MutexLock lock(progress_mu_);
      reported_ += batch.size() - delivered;
      ++batches_;
    }
    progress_cv_.notify_all();
  }
}

void AsyncAuditor::quiesce() {
  util::MutexLock lock(progress_mu_);
  while (reported_ != submitted_) progress_cv_.wait(progress_mu_);
}

void AsyncAuditor::save_corpus(const std::string& dir) {
  quiesce();
  service_.save_corpus(dir);
}

void AsyncAuditor::close() {
  queue_.close();  // push fails from here on; pending items stay poppable
  util::MutexLock lock(close_mu_);
  if (joined_) return;
  for (std::thread& consumer : consumers_) {
    consumer.join();  // each consumer drains its share, then exits
  }
  joined_ = true;
}

std::size_t AsyncAuditor::submitted() const {
  util::MutexLock lock(progress_mu_);
  return submitted_;
}

std::size_t AsyncAuditor::reported() const {
  util::MutexLock lock(progress_mu_);
  return reported_;
}

std::size_t AsyncAuditor::batches() const {
  util::MutexLock lock(progress_mu_);
  return batches_;
}

}  // namespace gnn4ip::audit
