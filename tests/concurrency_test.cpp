// Multi-consumer screening invariants. The acceptance bar for the
// shard-striped locking refactor: for a fixed submission stream, the
// verdict set (and post-quiesce top_k) is bit-identical across
// {1,2,4} consumers × {1,2,4} shards × {1,2,8} workers, with live
// eviction running — any interleaving of consumers must reproduce the
// sequential single-consumer corpus states, because commits are
// per-submission and ticket-ordered. The churn/close/stress tests below
// are the TSan targets: they race producers, consumers, readers, and
// eviction against each other and assert nothing hangs, no future is
// dropped, and structural invariants hold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "data/corpus.h"
#include "data/rtl_designs.h"
#include "exhaustive_oracle.h"
#include "util/bounded_queue.h"
#include "util/contract.h"

namespace gnn4ip::audit {
namespace {

constexpr std::size_t kNoIndex = core::ShardedCorpus::kNoIndex;

std::vector<train::GraphEntry> stream_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 3;
  options.families = {"adder", "crc8", "parity", "counter"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

/// Reports must agree bit-for-bit: same acceptance, same verdict list
/// (names, similarities, flags, indices), same best.
void expect_reports_identical(const ScreenReport& got,
                              const ScreenReport& want,
                              const std::string& config) {
  EXPECT_EQ(got.submission.name, want.submission.name) << config;
  EXPECT_EQ(got.submission.accepted, want.submission.accepted) << config;
  EXPECT_EQ(got.submission.corpus_index, want.submission.corpus_index)
      << config;
  ASSERT_EQ(got.verdicts.size(), want.verdicts.size())
      << config << " query " << want.submission.name;
  for (std::size_t v = 0; v < want.verdicts.size(); ++v) {
    EXPECT_EQ(got.verdicts[v].matched, want.verdicts[v].matched) << config;
    EXPECT_EQ(got.verdicts[v].similarity, want.verdicts[v].similarity)
        << config << " query " << want.submission.name << " vs "
        << want.verdicts[v].matched;
    EXPECT_EQ(got.verdicts[v].flagged, want.verdicts[v].flagged) << config;
    EXPECT_EQ(got.verdicts[v].corpus_index, want.verdicts[v].corpus_index)
        << config;
  }
  ASSERT_EQ(got.best.has_value(), want.best.has_value()) << config;
  if (want.best) {
    EXPECT_EQ(got.best->matched, want.best->matched) << config;
    EXPECT_EQ(got.best->similarity, want.best->similarity) << config;
  }
}

TEST(MultiConsumer, VerdictSetInvariantAcrossConsumersShardsWorkersGrid) {
  // The tentpole acceptance grid. One fixed submission stream (a pinned
  // library + 8 screened designs) with a live eviction budget; the
  // sequential single-consumer single-shard single-worker run is the
  // reference, and every {consumers, shards, workers} cell must
  // reproduce its reports cell-by-cell and its post-quiesce top_k.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 12u);
  const std::size_t library = 4;
  const std::size_t streamed = 8;

  const auto make_options = [&](std::size_t shards, std::size_t workers) {
    AuditOptions options;
    options.scorer.num_threads = workers;
    options.scorer.delta = -2.0F;  // every resident match is a verdict
    options.num_shards = shards;
    options.max_resident = library + 2;  // eviction churns mid-stream
    return options;
  };

  // Reference: synchronous, one submission per screen() call — the
  // per-submission commit semantics make this THE sequential order any
  // consumer pool must reproduce.
  std::vector<ScreenReport> expected;
  AuditService reference(model, make_options(1, 1));
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(reference.add_library(entries[i]).accepted);
  }
  for (std::size_t i = 0; i < streamed; ++i) {
    ASSERT_TRUE(reference.submit(entries[library + i]));
    for (ScreenReport& r : reference.screen()) expected.push_back(std::move(r));
  }
  ASSERT_EQ(expected.size(), streamed);
  const std::vector<Verdict> expected_top =
      reference.top_k(entries[0].name, 3);

  for (const std::size_t consumers : {1u, 2u, 4u}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t workers : {1u, 2u, 8u}) {
        const std::string config = "consumers=" + std::to_string(consumers) +
                                   " shards=" + std::to_string(shards) +
                                   " workers=" + std::to_string(workers);
        AsyncOptions async;
        async.num_consumers = consumers;
        async.max_batch = 1;  // maximal cross-consumer interleaving
        AsyncAuditor auditor(model, make_options(shards, workers),
                             std::move(async));
        for (std::size_t i = 0; i < library; ++i) {
          ASSERT_TRUE(auditor.service().add_library(entries[i]).accepted);
        }
        std::vector<std::future<ScreenReport>> futures;
        for (std::size_t i = 0; i < streamed; ++i) {
          futures.push_back(auditor.submit(entries[library + i]));
        }
        auditor.quiesce();
        for (std::size_t r = 0; r < streamed; ++r) {
          expect_reports_identical(futures[r].get(), expected[r], config);
        }
        // Post-quiesce top_k: the resident corpus itself converged to
        // the same state, not just the reports.
        const std::vector<Verdict> top =
            auditor.service().top_k(entries[0].name, 3);
        ASSERT_EQ(top.size(), expected_top.size()) << config;
        for (std::size_t t = 0; t < top.size(); ++t) {
          EXPECT_EQ(top[t].matched, expected_top[t].matched) << config;
          EXPECT_EQ(top[t].similarity, expected_top[t].similarity) << config;
          EXPECT_EQ(top[t].corpus_index, expected_top[t].corpus_index)
              << config;
        }
        EXPECT_EQ(auditor.service().resident(), reference.resident())
            << config;
        // And the converged corpus screens and ranks exactly like the
        // exhaustive oracle over its own rows.
        const auto& corpus = dynamic_cast<const core::ShardedCorpus&>(
            auditor.service().corpus());
        oracle::expect_same_ranking(corpus.top_k(0, 3),
                                    oracle::top_k(corpus, 0, 3), config);
        oracle::expect_same_screen(corpus.screen_new_rows(2, 0.5F),
                                   oracle::screen(corpus, 2, 0.5F), config);
      }
    }
  }
}

TEST(MultiConsumer, OnReportSerializedInTicketOrderAcrossConsumers) {
  // on_report fires inside the commit turnstile: mutually exclusive
  // across consumers and in global ticket order. With one producer,
  // ticket order is submission order — the callback sequence must be
  // exactly the submitted names, even with 4 consumers racing.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 2;
  std::vector<std::string> observed;
  std::atomic<int> in_callback{0};
  AsyncOptions async;
  async.num_consumers = 4;
  async.max_batch = 1;
  async.on_report = [&](const ScreenReport& report) {
    // Mutual exclusion: no second callback may be in flight.
    ASSERT_EQ(in_callback.fetch_add(1), 0);
    observed.push_back(report.submission.name);
    in_callback.fetch_sub(1);
  };
  AsyncAuditor auditor(model, options, std::move(async));
  std::vector<std::future<ScreenReport>> futures;
  for (const train::GraphEntry& entry : entries) {
    futures.push_back(auditor.submit(entry));
  }
  auditor.quiesce();
  ASSERT_EQ(observed.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(observed[i], entries[i].name);
    EXPECT_EQ(futures[i].get().submission.name, entries[i].name);
  }
}

TEST(MultiConsumer, ProducerConsumerChurnWithLiveEvictionAndReaders) {
  // The TSan stress target: 4 producers × 3 consumers × live eviction ×
  // a concurrent top_k reader, all against one service. Every future
  // must resolve, counters must balance, and the resident cache must
  // respect its bound at quiesce.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 6u);
  const std::size_t library = 2;

  AuditOptions options;
  options.num_shards = 2;
  options.max_resident = 3;
  options.scorer.num_threads = 2;
  AsyncOptions async;
  async.num_consumers = 3;
  async.max_batch = 2;
  async.queue_capacity = 8;  // small: producers hit backpressure
  AsyncAuditor auditor(model, options, std::move(async));
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(auditor.service().add_library(entries[i]).accepted);
  }

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<ScreenReport>>> futures(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        const train::GraphEntry& entry =
            entries[library + (p + k) % (entries.size() - library)];
        futures[p].push_back(auditor.submit(
            "p" + std::to_string(p) + "#" + std::to_string(k), entry.tensors));
      }
    });
  }
  // Concurrent reader: top_k on a pinned library entry races commits
  // and compactions (the state lock's shared path). The pinned first
  // library entry holds index 0 throughout, and name() hands back a
  // copy that later commits cannot move or free.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load()) {
      const std::vector<Verdict> top =
          auditor.service().top_k(entries[0].name, 2);
      ASSERT_LE(top.size(), 2u);
      (void)auditor.service().resident();
      (void)auditor.service().contains(entries[1].name);
      ASSERT_EQ(auditor.service().name(0), entries[0].name);
    }
  });
  for (std::thread& t : producers) t.join();
  auditor.quiesce();
  stop_reader.store(true);
  reader.join();

  std::size_t accepted = 0;
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) {
      const ScreenReport report = f.get();
      if (report.submission.accepted) ++accepted;
    }
  }
  EXPECT_EQ(accepted, kProducers * kPerProducer);
  EXPECT_EQ(auditor.submitted(), kProducers * kPerProducer);
  EXPECT_EQ(auditor.reported(), kProducers * kPerProducer);
  // Pinned library + the eviction bound: at quiesce the cache obeys
  // max_resident (library entries are pinned but within the bound).
  EXPECT_LE(auditor.service().resident(), options.max_resident);
  for (std::size_t i = 0; i < library; ++i) {
    EXPECT_TRUE(auditor.service().contains(entries[i].name));
  }
}

TEST(MultiConsumer, CloseWhileScreeningFulfilsEveryFuture) {
  // close() races in-flight screening and queued backlog across the
  // pool: everything already accepted must screen (drain-on-close),
  // late submissions must resolve with the rejected-report diagnostic,
  // and no future may ever hang or break.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 4u);

  AuditOptions options;
  options.num_shards = 2;
  AsyncOptions async;
  async.num_consumers = 2;
  async.max_batch = 1;
  async.queue_capacity = 4;
  AsyncAuditor auditor(model, options, std::move(async));

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 10;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<ScreenReport>>> futures(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        futures[p].push_back(
            auditor.submit("p" + std::to_string(p) + "#" + std::to_string(k),
                           entries[k % entries.size()].tensors));
      }
    });
  }
  auditor.close();  // races the producers: some submissions lose
  for (std::thread& t : producers) t.join();

  std::size_t screened = 0;
  std::size_t rejected = 0;
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) {
      const ScreenReport report = f.get();  // must never hang or throw
      if (report.submission.accepted) {
        ++screened;
      } else {
        EXPECT_FALSE(report.submission.error.message.empty());
        ++rejected;
      }
    }
  }
  EXPECT_EQ(screened + rejected, kProducers * kPerProducer);
  // Drain-on-close: everything the queue accepted was screened, so the
  // progress counters balance even though close() raced the producers.
  EXPECT_EQ(auditor.reported(), auditor.submitted());
  EXPECT_EQ(auditor.reported(), screened);
}

TEST(MultiConsumer, ShardedCorpusReadersRaceAdmissionsAndCompaction) {
  // Reader/writer interleave stress at the core layer: top_k and
  // screen_new_rows scans race add(), remove(), and compact() from
  // sibling threads. Under TSan this is the proof the stripe/index/
  // epoch locking has no data race; in any build it proves scans only
  // ever see fully admitted rows (snapshot semantics) and a stable
  // row 0.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 4u);
  const auto embed = [&](std::size_t i) {
    return model.embed_inference(entries[i % entries.size()].tensors);
  };

  core::ShardedCorpus corpus(4);  // num_threads defaults to shared pool
  ASSERT_EQ(corpus.add("base", embed(0)), 0u);

  std::vector<std::thread> threads;
  // Writer-progress pacing: admitters push a token per admission and
  // the readers/compactor time-bound-wait on the queue between sweeps
  // (pop_for), so a hot reader spin cannot starve writers on a
  // reader-preferring rwlock — a real timed backoff tied to actual
  // writer progress, not a std::this_thread::yield scheduling hint
  // (the production access pattern interleaves reads and commits; the
  // starvation this prevents is a scheduling artifact, not a
  // correctness bug).
  util::BoundedQueue<std::size_t> progress(64);
  for (std::size_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t k = 0; k < 48; ++k) {
        const std::size_t g = corpus.add(
            "w" + std::to_string(w) + "#" + std::to_string(k), embed(k + 1));
        ASSERT_GT(g, 0u);
        if (k % 3 == 0) {
          // Churn tombstones. Global ids are documented as invalidated
          // by compact(), and the compactor below races this window —
          // an out-of-range throw just means the id went stale (the
          // production caller serializes remove/compact in the commit
          // slot and never sees this). g > 0, so a stale-but-in-range
          // id can only tombstone some non-base row, which the final
          // rebuild comparison below absorbs.
          try {
            corpus.remove(g);
          } catch (const std::exception&) {
          }
        }
        (void)progress.try_push(std::size_t{k});  // signal, never block
      }
    });
  }
  // Three readers, a bounded number of sweeps each: top_k of the stable
  // base row, and whole-corpus screens against it.
  for (std::size_t r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      for (std::size_t iter = 0; iter < 40; ++iter) {
        const auto top = corpus.top_k(0, 5);
        ASSERT_LE(top.size(), 5u);
        for (const core::PairScore& p : top) {
          ASSERT_EQ(p.a, 0u);
          ASSERT_NE(p.b, 0u);
          ASSERT_GE(p.similarity, -1.0F);
          ASSERT_LE(p.similarity, 1.0F);
        }
        // first_new = 1 stays valid under racing compaction (the base
        // row survives every renumbering, so the size never drops below
        // 1): every later row screens against the base row alone.
        for (const core::ScreenRow& row : corpus.screen_new_rows(1, -2.0F)) {
          ASSERT_EQ(row.scanned, 1u);
          ASSERT_TRUE(row.best.has_value());
          ASSERT_EQ(row.best->index, 0u);
          ASSERT_EQ(row.flagged.size(), 1u);
        }
        ASSERT_EQ(corpus.live(0), true);
        // Wait for writer progress (or 1ms, whichever first) before the
        // next sweep — yields the locks to the admitters for real.
        (void)progress.pop_for(std::chrono::milliseconds(1));
      }
    });
  }
  // One compactor: the global epoch racing everyone. Row 0 is live and
  // first-inserted, so its global id survives every renumbering.
  threads.emplace_back([&] {
    for (std::size_t k = 0; k < 24; ++k) {
      const std::vector<std::size_t> mapping = corpus.compact();
      if (!mapping.empty()) {
        ASSERT_EQ(mapping[0], 0u);
      }
      (void)progress.pop_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : threads) t.join();

  // Converged state: one final compact, then the corpus must be exactly
  // the live set in insertion order, and its screens and rankings the
  // exhaustive oracle's.
  (void)corpus.compact();
  EXPECT_EQ(corpus.size(), corpus.live_count());
  EXPECT_EQ(corpus.name(0), "base");
  oracle::expect_same_ranking(corpus.top_k(0, 8), oracle::top_k(corpus, 0, 8),
                              "converged top_k");
  const std::size_t half = corpus.size() / 2;
  oracle::expect_same_screen(corpus.screen_new_rows(half, 0.5F),
                             oracle::screen(corpus, half, 0.5F),
                             "converged screen");
}

TEST(MultiConsumer, AddLibraryWhileConsumersStreamIsSafe) {
  // add_library takes its own admission ticket, so growing the pinned
  // library mid-stream lands between two commits instead of racing one.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 2;
  AsyncOptions async;
  async.num_consumers = 2;
  async.max_batch = 1;
  AsyncAuditor auditor(model, options, std::move(async));
  ASSERT_TRUE(auditor.service().add_library(entries[0]).accepted);

  std::vector<std::future<ScreenReport>> futures;
  std::thread producer([&] {
    for (std::size_t k = 0; k < 12; ++k) {
      futures.push_back(auditor.submit("sub#" + std::to_string(k),
                                       entries[k % entries.size()].tensors));
    }
  });
  // Race pinned admissions against the stream.
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(auditor.service().add_library(entries[i]).accepted);
  }
  producer.join();
  auditor.quiesce();
  for (auto& f : futures) EXPECT_TRUE(f.get().submission.accepted);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(auditor.service().contains(entries[i].name));
    EXPECT_TRUE(auditor.service().pinned(entries[i].name));
    EXPECT_NE(auditor.service().index_of(entries[i].name), kNoIndex);
  }
}

}  // namespace
}  // namespace gnn4ip::audit
