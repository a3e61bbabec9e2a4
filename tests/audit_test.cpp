// AuditService tests: screen() parity with the exhaustive oracle
// (bit-identical across worker counts — the facade must never change
// the arithmetic), Result-style per-submission diagnostics, and the
// eviction story (LRU, pinning, capacity bounds, evict-then-resubmit).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
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

std::vector<data::CorpusItem> small_corpus_items() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter"};
  return data::build_rtl_corpus(options);
}

std::vector<train::GraphEntry> small_corpus() {
  return make_graph_entries(small_corpus_items());
}

TEST(AuditService, ScreenBitIdenticalToOracleAcrossShardsAndWorkers) {
  // The acceptance bar: screen() verdict similarities equal the oracle's
  // cells on an identically built corpus — not approximately,
  // bit-for-bit — for {1, 2, 4} shards × {1, 2, 8} workers. Submissions
  // commit one at a time, so submission r scores against the library
  // AND its r earlier batch-mates (rows j < library + r of the
  // reference corpus).
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const std::size_t library = 5;

  std::vector<std::vector<ScreenReport>> per_config;
  for (std::size_t shards : {1u, 2u, 4u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      AuditOptions options;
      options.num_shards = shards;
      options.scorer.num_threads = threads;
      options.scorer.delta = -2.0F;  // every resident match is a verdict
      AuditService service(model, options);
      for (std::size_t i = 0; i < library; ++i) {
        ASSERT_TRUE(service.add_library(entries[i]).accepted);
      }
      for (std::size_t i = library; i < entries.size(); ++i) {
        ASSERT_TRUE(service.submit(entries[i]));
      }
      per_config.push_back(service.screen());
    }
  }

  // Reference: every design embedded once into a plain corpus.
  core::ShardedCorpus reference;
  for (const train::GraphEntry& entry : entries) {
    reference.add(entry.name, model.embed_inference(entry.tensors));
  }

  for (const std::vector<ScreenReport>& reports : per_config) {
    ASSERT_EQ(reports.size(), entries.size() - library);
    for (std::size_t r = 0; r < reports.size(); ++r) {
      const ScreenReport& report = reports[r];
      ASSERT_TRUE(report.submission.accepted);
      ASSERT_EQ(report.verdicts.size(), library + r);
      std::map<std::string, float> by_name;
      for (const Verdict& v : report.verdicts) {
        by_name[v.matched] = v.similarity;
      }
      for (std::size_t j = 0; j < library + r; ++j) {
        ASSERT_TRUE(by_name.count(entries[j].name));
        EXPECT_EQ(by_name[entries[j].name],
                  oracle::cell(reference, library + r, j))
            << "query " << report.submission.name << " vs "
            << entries[j].name;
      }
      ASSERT_TRUE(report.best.has_value());
      EXPECT_EQ(report.best->similarity, report.verdicts.front().similarity);
    }
  }
}

TEST(AuditService, TiedVerdictsComeOutByAscendingIndex) {
  // Copies of one design pinned under different names embed to the same
  // bits, so their similarities to a submission tie exactly. Verdicts
  // are similarity-descending with each tie in ascending corpus index,
  // whichever shard each copy lands in. Two interleaved groups of 12
  // copies keep the flagged list past the length at which sorts fall
  // back to insertion sort, which would keep ties in order by accident.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 5u);
  constexpr std::size_t kCopies = 12;
  for (std::size_t shards : {1u, 2u, 4u}) {
    AuditOptions options;
    options.num_shards = shards;
    options.scorer.delta = -2.0F;  // every resident row is a verdict
    AuditService service(model, options);
    for (std::size_t c = 0; c < kCopies; ++c) {
      const std::string n = std::to_string(c);
      ASSERT_TRUE(service.add_library("a#" + n, entries[0].tensors).accepted);
      ASSERT_TRUE(service.add_library("b#" + n, entries[2].tensors).accepted);
    }
    ASSERT_TRUE(service.submit("query", entries[4].tensors));
    const std::vector<ScreenReport> reports = service.screen();
    ASSERT_EQ(reports.size(), 1u);
    const std::vector<Verdict>& verdicts = reports[0].verdicts;
    ASSERT_EQ(verdicts.size(), 2 * kCopies);
    ASSERT_NE(verdicts.front().similarity, verdicts.back().similarity);
    std::size_t ties = 0;
    for (std::size_t v = 1; v < verdicts.size(); ++v) {
      ASSERT_GE(verdicts[v - 1].similarity, verdicts[v].similarity)
          << "shards " << shards << ", verdict " << v;
      if (verdicts[v - 1].similarity == verdicts[v].similarity) {
        ++ties;
        EXPECT_LT(verdicts[v - 1].corpus_index, verdicts[v].corpus_index)
            << "shards " << shards << ", verdict " << v;
      }
    }
    EXPECT_EQ(ties, 2 * (kCopies - 1)) << "shards " << shards;
  }
}

TEST(AuditService, VerilogSourcePathMatchesGraphPath) {
  // submit(name, verilog) runs parse → featurize → embed inside the
  // service; the scores must equal the pre-featurized GraphEntry path
  // bit-for-bit (same pipeline, same arithmetic).
  gnn::Hw2Vec model;
  const auto items = small_corpus_items();
  const auto entries = make_graph_entries(items);
  ASSERT_GE(items.size(), 4u);

  const auto screen_sims = [&](bool from_source) {
    AuditOptions options;
    options.scorer.delta = -2.0F;
    AuditService service(model, options);
    (void)service.add_library(entries[0]);
    (void)service.add_library(entries[1]);
    for (std::size_t i = 2; i < 4; ++i) {
      if (from_source) {
        EXPECT_TRUE(service.submit(items[i].name, items[i].verilog));
      } else {
        EXPECT_TRUE(service.submit(entries[i]));
      }
    }
    std::vector<float> sims;
    for (const ScreenReport& report : service.screen()) {
      EXPECT_TRUE(report.submission.accepted);
      for (const Verdict& v : report.verdicts) sims.push_back(v.similarity);
    }
    return sims;
  };

  const std::vector<float> from_source = screen_sims(true);
  const std::vector<float> from_graph = screen_sims(false);
  ASSERT_EQ(from_source.size(), from_graph.size());
  ASSERT_FALSE(from_source.empty());
  for (std::size_t i = 0; i < from_source.size(); ++i) {
    EXPECT_EQ(from_source[i], from_graph[i]);
  }
}

TEST(AuditService, MalformedDesignGetsDiagnosticWithoutKillingBatch) {
  gnn::Hw2Vec model;
  const auto items = small_corpus_items();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library(items[0].name, items[0].verilog).accepted);

  ASSERT_TRUE(service.submit("good#1", items[1].verilog));
  ASSERT_TRUE(service.submit("broken", "module oops (input a, ;;;"));
  ASSERT_TRUE(service.submit("good#2", items[2].verilog));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_TRUE(reports[0].submission.accepted);
  EXPECT_TRUE(reports[0].best.has_value());
  EXPECT_FALSE(reports[1].submission.accepted);
  EXPECT_FALSE(reports[1].submission.error.message.empty());
  EXPECT_GT(reports[1].submission.error.location.line, 0);
  EXPECT_TRUE(reports[1].verdicts.empty());
  EXPECT_FALSE(reports[1].best.has_value());
  EXPECT_TRUE(reports[2].submission.accepted);
  EXPECT_TRUE(reports[2].best.has_value());

  // Only the two good designs joined the corpus.
  EXPECT_EQ(service.resident(), 3u);
  EXPECT_FALSE(service.contains("broken"));
}

TEST(AuditService, LibraryParseErrorReportsDiagnostic) {
  gnn::Hw2Vec model;
  AuditService service(model);
  const Submission s = service.add_library("bad-lib", "module (((");
  EXPECT_FALSE(s.accepted);
  EXPECT_FALSE(s.error.message.empty());
  EXPECT_EQ(service.resident(), 0u);
}

TEST(AuditService, EvictThenResubmitSameName) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.max_resident = 1;
  AuditService service(model, options);

  ASSERT_TRUE(service.submit("a", entries[0].tensors));
  (void)service.screen();
  EXPECT_TRUE(service.contains("a"));
  EXPECT_EQ(service.resident(), 1u);

  // "b" arrives: LRU evicts "a".
  ASSERT_TRUE(service.submit("b", entries[1].tensors));
  (void)service.screen();
  EXPECT_FALSE(service.contains("a"));
  EXPECT_TRUE(service.contains("b"));
  EXPECT_EQ(service.resident(), 1u);

  // Resubmitting the evicted name re-admits it cleanly.
  ASSERT_TRUE(service.submit("a", entries[0].tensors));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].submission.accepted);
  EXPECT_TRUE(service.contains("a"));
  EXPECT_FALSE(service.contains("b"));
  EXPECT_EQ(service.resident(), 1u);
}

TEST(AuditService, PinnedEntriesAreNeverEvicted) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  AuditOptions options;
  options.scorer.delta = -2.0F;
  options.max_resident = 2;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library("lib:0", entries[0].tensors).accepted);
  ASSERT_TRUE(service.add_library("lib:1", entries[1].tensors).accepted);
  EXPECT_TRUE(service.pinned("lib:0"));

  for (std::size_t i = 2; i < 6; ++i) {
    ASSERT_TRUE(
        service.submit("q" + std::to_string(i), entries[i].tensors));
  }
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 4u);
  for (const ScreenReport& report : reports) {
    // Every query was screened against both library entries...
    EXPECT_TRUE(report.submission.accepted);
    EXPECT_EQ(report.verdicts.size(), 2u);
    // ...then evicted to respect max_resident == pinned library size.
    EXPECT_EQ(report.submission.corpus_index, kNoIndex);
  }
  EXPECT_EQ(service.resident(), 2u);
  EXPECT_TRUE(service.contains("lib:0"));
  EXPECT_TRUE(service.contains("lib:1"));
}

TEST(AuditService, CapacityOneCorpusScreensAndEvicts) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  options.max_resident = 1;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library("lib", entries[0].tensors).accepted);

  ASSERT_TRUE(service.submit("query", entries[1].tensors));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].submission.accepted);
  ASSERT_TRUE(reports[0].best.has_value());
  EXPECT_EQ(reports[0].best->matched, "lib");
  // The query could not stay resident (library is pinned, bound is 1).
  EXPECT_EQ(reports[0].submission.corpus_index, kNoIndex);
  EXPECT_EQ(service.resident(), 1u);
  EXPECT_TRUE(service.contains("lib"));
}

TEST(AuditService, ResubmittingResidentNameReplacesItsRow) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library("lib", entries[0].tensors).accepted);

  ASSERT_TRUE(service.submit("x", entries[1].tensors));
  (void)service.screen();
  ASSERT_TRUE(service.contains("x"));
  const float before = service.top_k("lib", 1).front().similarity;

  ASSERT_TRUE(service.submit("x", entries[2].tensors));
  (void)service.screen();
  EXPECT_EQ(service.resident(), 2u);
  const float after = service.top_k("lib", 1).front().similarity;
  // entries[1] and entries[2] are different designs, so replacing the
  // row must change the cached score.
  EXPECT_NE(before, after);
}

TEST(AuditService, TopKIndicesConsistentWithNames) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.add_library(entries[i]).accepted);
  }
  const std::vector<Verdict> nearest = service.top_k(entries[0].name, 3);
  ASSERT_EQ(nearest.size(), 3u);
  for (const Verdict& v : nearest) {
    ASSERT_NE(v.corpus_index, kNoIndex);
    EXPECT_EQ(service.name(v.corpus_index), v.matched);
    EXPECT_TRUE(v.flagged);  // delta is -2: every match flags
  }
  for (std::size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_GE(nearest[i - 1].similarity, nearest[i].similarity);
  }
  EXPECT_THROW((void)service.top_k("not-resident", 1),
               util::ContractViolation);
}

TEST(AuditService, BoundedQueueRefusesBeyondCapacityUntilScreened) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.queue_capacity = 2;
  AuditService service(model, options);
  EXPECT_TRUE(service.submit("a", entries[0].tensors));
  EXPECT_TRUE(service.submit("b", entries[1].tensors));
  EXPECT_FALSE(service.submit("c", entries[2].tensors));
  EXPECT_EQ(service.pending(), 2u);
  EXPECT_EQ(service.screen().size(), 2u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_TRUE(service.submit("c", entries[2].tensors));
}

TEST(AuditService, CorpusDimMatchesModelEmbeddingDim) {
  // Guards Hw2Vec::embedding_dim() against drifting from the width the
  // readout actually produces (the resident cache fixes its dim from a
  // real embedding).
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditService service(model);
  ASSERT_TRUE(service.add_library(entries[0]).accepted);
  EXPECT_EQ(service.corpus().dim(), service.model().embedding_dim());
}

TEST(AuditService, EmptyScreenIsANoOp) {
  gnn::Hw2Vec model;
  AuditService service(model);
  EXPECT_TRUE(service.screen().empty());
  EXPECT_EQ(service.resident(), 0u);
}

TEST(CompileRtl, ReportsDiagnosticsInsteadOfThrowing) {
  const CompileResult good = compile_rtl(
      "module T (input a, output y);\n  assign y = a;\nendmodule\n");
  ASSERT_TRUE(good.ok);
  EXPECT_GT(good.design.tensors.num_nodes, 0u);

  const CompileResult bad = compile_rtl("module T (input a,,\n");
  ASSERT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.message.empty());
  EXPECT_GT(bad.error.location.line, 0);
  EXPECT_NE(bad.error.to_string().find(':'), std::string::npos);
}

TEST(AsyncAuditor, FuturesMatchSynchronousScreenBitForBit) {
  // The daemon changes when screen() runs, never its arithmetic: the
  // reports delivered through futures equal a synchronous service's,
  // bit for bit, including with a sharded corpus underneath.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const std::size_t library = 4;

  AuditOptions options;
  options.scorer.delta = -2.0F;
  // Screened submissions must not stay resident: the daemon batches
  // adaptively, and a design kept from an earlier batch would add
  // verdicts to later ones.
  options.max_resident = library;
  options.num_shards = 2;

  AuditService sync(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(sync.add_library(entries[i]).accepted);
  }
  std::vector<ScreenReport> expected;
  for (std::size_t i = library; i < entries.size(); ++i) {
    ASSERT_TRUE(sync.submit(entries[i]));
    for (ScreenReport& r : sync.screen()) expected.push_back(std::move(r));
  }

  AsyncAuditor auditor(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(auditor.service().add_library(entries[i]).accepted);
  }
  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = library; i < entries.size(); ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  ASSERT_EQ(futures.size(), expected.size());
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const ScreenReport got = futures[r].get();
    const ScreenReport& want = expected[r];
    EXPECT_EQ(got.submission.name, want.submission.name);
    EXPECT_EQ(got.submission.accepted, want.submission.accepted);
    ASSERT_EQ(got.verdicts.size(), want.verdicts.size());
    for (std::size_t v = 0; v < want.verdicts.size(); ++v) {
      EXPECT_EQ(got.verdicts[v].matched, want.verdicts[v].matched);
      EXPECT_EQ(got.verdicts[v].similarity, want.verdicts[v].similarity);
    }
    ASSERT_EQ(got.best.has_value(), want.best.has_value());
    if (want.best) {
      EXPECT_EQ(got.best->matched, want.best->matched);
      EXPECT_EQ(got.best->similarity, want.best->similarity);
    }
  }
  auditor.quiesce();
  EXPECT_EQ(auditor.reported(), futures.size());
  EXPECT_GE(auditor.batches(), 1u);
}

TEST(AsyncAuditor, MalformedDesignResolvesItsFutureWithDiagnostic) {
  gnn::Hw2Vec model;
  const auto items = small_corpus_items();
  AsyncAuditor auditor(model);
  ASSERT_TRUE(
      auditor.service().add_library(items[0].name, items[0].verilog)
          .accepted);
  std::future<ScreenReport> good =
      auditor.submit("good", items[1].verilog);
  std::future<ScreenReport> bad =
      auditor.submit("broken", "module oops (input a, ;;;");
  const ScreenReport good_report = good.get();
  EXPECT_TRUE(good_report.submission.accepted);
  const ScreenReport bad_report = bad.get();
  EXPECT_FALSE(bad_report.submission.accepted);
  EXPECT_FALSE(bad_report.submission.error.message.empty());
  EXPECT_GT(bad_report.submission.error.location.line, 0);
}

TEST(AsyncAuditor, CallbackFiresOnConsumerThreadInScreeningOrder) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);

  std::vector<std::string> seen;  // consumer-thread only, read after quiesce
  AsyncOptions async;
  async.on_report = [&seen](const ScreenReport& report) {
    seen.push_back(report.submission.name);
  };
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AsyncAuditor auditor(model, options, std::move(async));
  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  auditor.quiesce();
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i], entries[i].name);  // FIFO screening order
    EXPECT_EQ(futures[i].get().submission.name, entries[i].name);
  }
}

TEST(AsyncAuditor, CloseDrainsBacklogAndFulfilsEveryFuture) {
  // Submissions accepted before close() are screened, not dropped —
  // drain-on-close end to end.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AsyncAuditor auditor(model, options);
  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  auditor.close();
  EXPECT_TRUE(auditor.closed());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ScreenReport report = futures[i].get();  // never a broken promise
    EXPECT_TRUE(report.submission.accepted) << report.submission.name;
  }
  EXPECT_EQ(auditor.reported(), futures.size());

  // After close, a submission resolves immediately with a rejection.
  std::future<ScreenReport> late = auditor.submit(entries[0]);
  const ScreenReport rejected = late.get();
  EXPECT_FALSE(rejected.submission.accepted);
  EXPECT_NE(rejected.submission.error.message.find("closed"),
            std::string::npos);
}

TEST(AsyncAuditor, ConcurrentProducersAllGetReports) {
  // Several producer threads hammer submit() while the daemon screens
  // continuously; every future resolves with the submission's own name.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  AuditOptions options;
  options.scorer.delta = -2.0F;
  options.max_resident = 1;  // constant churn through evict+compact
  AsyncAuditor auditor(model, options);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const train::GraphEntry& entry = entries[(p + i) % 4];
        const std::string name =
            "p" + std::to_string(p) + "#" + std::to_string(i);
        std::future<ScreenReport> future =
            auditor.submit(name, entry.tensors);
        const ScreenReport report = future.get();
        if (report.submission.name != name || !report.submission.accepted) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  auditor.quiesce();
  EXPECT_EQ(auditor.reported(), kProducers * kPerProducer);
  EXPECT_EQ(auditor.submitted(), kProducers * kPerProducer);
}

// ---- Victim order -------------------------------------------------------
// Under a max_resident bound the victim is the oldest live unpinned row
// by admission order. Every design below reuses one set of tensors:
// which row goes depends only on names, pins and arrival order.

using Names = std::vector<std::string>;

/// Resident names by corpus index: after each commit's compaction the
/// corpus is dense, so this is admission order.
Names residents(const AuditService& service) {
  Names names;
  for (std::size_t i = 0; i < service.resident(); ++i) {
    names.push_back(service.name(i));
  }
  return names;
}

/// Submit and screen one design under `name`.
void screen_as(AuditService& service, const std::string& name,
               const gnn::GraphTensors& tensors) {
  ASSERT_TRUE(service.submit(name, tensors));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].submission.accepted) << name;
}

AuditOptions bounded(std::size_t max_resident) {
  AuditOptions options;
  options.max_resident = max_resident;
  return options;
}

TEST(AuditEviction, VictimsFollowAdmissionOrder) {
  gnn::Hw2Vec model;
  const gnn::GraphTensors t = small_corpus()[0].tensors;
  AuditService service(model, bounded(2));
  screen_as(service, "a", t);
  screen_as(service, "b", t);
  EXPECT_EQ(residents(service), (Names{"a", "b"}));
  screen_as(service, "c", t);
  EXPECT_EQ(residents(service), (Names{"b", "c"}));
  screen_as(service, "d", t);
  EXPECT_EQ(residents(service), (Names{"c", "d"}));
}

TEST(AuditEviction, PinnedRowBetweenUnpinnedRowsIsSkipped) {
  gnn::Hw2Vec model;
  const gnn::GraphTensors t = small_corpus()[0].tensors;
  AuditService service(model, bounded(3));
  screen_as(service, "a", t);
  ASSERT_TRUE(service.add_library("lib", t).accepted);
  screen_as(service, "b", t);
  screen_as(service, "c", t);
  EXPECT_EQ(residents(service), (Names{"lib", "b", "c"}));
  screen_as(service, "d", t);
  EXPECT_EQ(residents(service), (Names{"lib", "c", "d"}));
}

TEST(AuditEviction, UnpinnedRowIsEvictableAtItsOriginalPosition) {
  gnn::Hw2Vec model;
  const gnn::GraphTensors t = small_corpus()[0].tensors;
  AuditService service(model, bounded(3));
  screen_as(service, "a", t);
  ASSERT_TRUE(service.add_library("lib", t).accepted);
  screen_as(service, "b", t);
  service.unpin("lib");
  EXPECT_FALSE(service.pinned("lib"));
  // "a" is older than "lib", "lib" older than "b": unpinning neither
  // refreshed "lib" nor made it the oldest.
  screen_as(service, "c", t);
  EXPECT_EQ(residents(service), (Names{"lib", "b", "c"}));
  screen_as(service, "d", t);
  EXPECT_EQ(residents(service), (Names{"b", "c", "d"}));
}

TEST(AuditEviction, PinMidStreamProtectsTheRow) {
  gnn::Hw2Vec model;
  const gnn::GraphTensors t = small_corpus()[0].tensors;
  AuditService service(model, bounded(3));
  screen_as(service, "a", t);
  screen_as(service, "b", t);
  screen_as(service, "c", t);
  service.pin("a");
  screen_as(service, "d", t);
  EXPECT_EQ(residents(service), (Names{"a", "c", "d"}));
  screen_as(service, "e", t);
  EXPECT_EQ(residents(service), (Names{"a", "d", "e"}));
}

TEST(AuditEviction, ResubmittedNameBecomesTheNewest) {
  gnn::Hw2Vec model;
  const gnn::GraphTensors t = small_corpus()[0].tensors;
  AuditService service(model, bounded(3));
  screen_as(service, "a", t);
  screen_as(service, "b", t);
  screen_as(service, "c", t);
  screen_as(service, "a", t);  // replaces the row: nothing evicted
  EXPECT_EQ(residents(service), (Names{"b", "c", "a"}));
  screen_as(service, "d", t);
  EXPECT_EQ(residents(service), (Names{"c", "a", "d"}));
  screen_as(service, "e", t);
  EXPECT_EQ(residents(service), (Names{"a", "d", "e"}));
}

TEST(AuditEviction, SameVictimsAfterSaveAndLoad) {
  gnn::Hw2Vec model;
  const gnn::GraphTensors t = small_corpus()[0].tensors;
  AuditService warm(model, bounded(3));
  screen_as(warm, "a", t);
  ASSERT_TRUE(warm.add_library("lib", t).accepted);
  screen_as(warm, "b", t);
  screen_as(warm, "c", t);
  warm.pin("c");
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    "gnn4ip_audit_test" / "victim_order";
  std::filesystem::remove_all(dir);
  warm.save_corpus(dir.string());
  AuditService restarted(model, bounded(3));
  restarted.load_corpus(dir.string());
  EXPECT_EQ(residents(restarted), (Names{"lib", "b", "c"}));

  // The same steps on both services pick the same victims.
  const std::vector<std::pair<std::string, Names>> steps = {
      {"d", {"lib", "c", "d"}},
      {"unpin lib", {"lib", "c", "d"}},
      {"e", {"c", "d", "e"}},
      {"unpin c", {"c", "d", "e"}},
      {"f", {"d", "e", "f"}},
  };
  for (AuditService* service : {&warm, &restarted}) {
    for (const auto& [step, expected] : steps) {
      if (step.rfind("unpin ", 0) == 0) {
        service->unpin(step.substr(6));
      } else {
        screen_as(*service, step, t);
      }
      EXPECT_EQ(residents(*service), expected) << "after " << step;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gnn4ip::audit
