// Multi-consumer screening invariants. For a fixed submission stream,
// the verdict set (and post-quiesce top_k) is bit-identical across
// {1,2,4} consumers × {1,2,4} shards × {1,2,8} workers, with live
// eviction running — any interleaving of consumers must reproduce the
// sequential single-consumer corpus states, because commits are
// per-submission and ticket-ordered. The churn/close/load tests below
// are the TSan targets: they race producers, consumers, readers,
// eviction and warm restarts against each other through the service's
// one state lock and assert nothing hangs, no future is dropped, and
// structural invariants hold.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
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
  // Concurrent reader: every shared-state read (top_k, resident,
  // contains, index_of, pinned, name) races commits and compactions.
  // The pinned first library entry holds index 0 throughout, and name()
  // hands back a copy that later commits cannot move or free.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load()) {
      const std::vector<Verdict> top =
          auditor.service().top_k(entries[0].name, 2);
      ASSERT_LE(top.size(), 2u);
      (void)auditor.service().resident();
      (void)auditor.service().contains(entries[1].name);
      ASSERT_NE(auditor.service().index_of(entries[1].name), kNoIndex);
      ASSERT_TRUE(auditor.service().pinned(entries[0].name));
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

TEST(MultiConsumer, LoadCorpusWhileScreening) {
  // load_corpus() swaps the corpus while screen()'s embed phase fans out
  // on it with no lock held. The phase runs on its own reference to the
  // corpus it started with, so the swap can neither race the pointer
  // (inline fan-out) nor free the worker pool under a running batch
  // (owned pool) — TSan reports either one without that reference.
  gnn::Hw2Vec model;
  const auto entries = stream_corpus();
  ASSERT_GE(entries.size(), 4u);
  for (const std::size_t workers : {1u, 4u}) {
    const std::string config = "workers=" + std::to_string(workers);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gnn4ip_concurrency_test" /
        ("load_while_screening_" + std::to_string(workers));
    std::filesystem::remove_all(dir);

    AuditOptions options;
    options.num_shards = 2;
    options.scorer.num_threads = workers;
    AuditService service(model, options);
    ASSERT_TRUE(service.add_library(entries[0]).accepted);
    service.save_corpus(dir.string());

    std::atomic<bool> loaded{false};
    std::thread loader([&] {
      for (std::size_t k = 0; k < 200; ++k) service.load_corpus(dir.string());
      loaded.store(true);
    });
    std::size_t screened = 0;
    while (!loaded.load()) {
      const train::GraphEntry& entry =
          entries[1 + screened % (entries.size() - 1)];
      EXPECT_TRUE(service.submit("sub#" + std::to_string(screened),
                                 entry.tensors))
          << config;
      for (const ScreenReport& report : service.screen()) {
        EXPECT_TRUE(report.submission.accepted)
            << config << ": " << report.submission.error.message;
      }
      ++screened;
    }
    loader.join();
    EXPECT_GT(screened, 0u) << config;
    EXPECT_TRUE(service.contains(entries[0].name)) << config;
    EXPECT_TRUE(service.pinned(entries[0].name)) << config;
    std::filesystem::remove_all(dir);
  }
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
