// ShardedCorpus tests: the acceptance bar for the sharded resident
// corpus is that sharding is *invisible* to results — screen_new_rows()
// and top_k() match the exhaustive oracle bit for bit across {1, 2, 4}
// shards × {1, 2, 8} workers — while placement, per-shard eviction
// budgets, and per-shard compaction behave as documented.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "data/corpus.h"
#include "exhaustive_oracle.h"
#include "util/contract.h"

namespace gnn4ip::core {
namespace {

constexpr std::size_t kNoIndex = ShardedCorpus::kNoIndex;

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

/// One embedding per entry, shared by every scorer/corpus under test so
/// cross-configuration comparisons are exact.
std::vector<tensor::Matrix> embed_all(gnn::Hw2Vec& model,
                                      std::span<const train::GraphEntry> e) {
  std::vector<tensor::Matrix> out;
  out.reserve(e.size());
  for (const train::GraphEntry& entry : e) {
    out.push_back(model.embed_inference(entry.tensors));
  }
  return out;
}

TEST(ShardedCorpus, PlacementIsDeterministicAndInRange) {
  // FNV-1a of the name: a pure function — same name, same shard, on any
  // instance, in any insertion order.
  const std::vector<std::string> names = {"crc8", "uart_tx", "fifo_ctrl",
                                          "adder#1", "adder#2", ""};
  for (const std::string& name : names) {
    EXPECT_EQ(ShardedCorpus::placement(name, 1), 0u);
    for (std::size_t shards : {2u, 4u, 7u}) {
      const std::size_t s = ShardedCorpus::placement(name, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedCorpus::placement(name, shards));
    }
  }
  EXPECT_THROW((void)ShardedCorpus::placement("x", 0),
               util::ContractViolation);
}

TEST(ShardedCorpus, AddRoutesByNameHashAndKeepsGlobalIndexSpace) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  const auto embeddings = embed_all(model, entries);

  ShardedCorpus corpus(4);
  for (std::size_t i = 0; i < 4; ++i) {
    // Global ids are insertion-ordered regardless of shard placement.
    EXPECT_EQ(corpus.add(entries[i].name, embeddings[i]), i);
  }
  EXPECT_EQ(corpus.size(), 4u);
  EXPECT_EQ(corpus.live_count(), 4u);
  std::size_t shard_total = 0;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    shard_total += corpus.shard_live_count(s);
  }
  EXPECT_EQ(shard_total, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(corpus.name(i), entries[i].name);
    EXPECT_EQ(corpus.shard_of(i),
              ShardedCorpus::placement(entries[i].name, 4));
    // The row behind the global id is the admitted embedding, bit-equal.
    const std::vector<float> row = corpus.row(i);
    const std::span<const float> expected = embeddings[i].data();
    ASSERT_EQ(row.size(), expected.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], expected[k]);
    }
  }
}

TEST(ShardedCorpus, ScreenNewRowsMatchOracleAcrossShardAndWorkerCounts) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  for (std::size_t shards : {1u, 2u, 4u}) {
    for (std::size_t workers : {1u, 2u, 8u}) {
      ScorerOptions options;
      options.num_threads = workers;
      ShardedCorpus corpus(shards, options);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        corpus.add(entries[i].name, embeddings[i]);
      }
      // A tombstoned candidate must be skipped by every shard sweep.
      corpus.remove(2);
      for (const float delta : {-2.0F, 0.9F}) {
        const std::string label = std::to_string(shards) + " shards, " +
                                  std::to_string(workers) + " workers, δ " +
                                  std::to_string(delta);
        oracle::expect_same_screen(corpus.screen_new_rows(resident, delta),
                                   oracle::screen(corpus, resident, delta),
                                   label);
      }
      // Nothing new: an empty screen, not an error.
      EXPECT_TRUE(corpus.screen_new_rows(corpus.size(), 0.5F).empty());
    }
  }
}

TEST(ShardedCorpus, TopKMatchesOracleAcrossShardAndWorkerCounts) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  for (std::size_t shards : {1u, 2u, 4u}) {
    for (std::size_t workers : {1u, 2u, 8u}) {
      ScorerOptions options;
      options.num_threads = workers;
      ShardedCorpus corpus(shards, options);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        corpus.add(entries[i].name, embeddings[i]);
      }
      // Remove one row so live-row filtering is exercised by the merge.
      corpus.remove(1);
      for (const std::size_t query : {0u, 3u}) {
        // k below, at, and above the candidate count.
        const std::size_t candidates = corpus.live_count() - 1;
        for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                    candidates, std::size_t{99}}) {
          const std::string label = std::to_string(shards) + " shards, " +
                                    std::to_string(workers) + " workers, row " +
                                    std::to_string(query) + ", k " +
                                    std::to_string(k);
          oracle::expect_same_ranking(corpus.top_k(query, k),
                                      oracle::top_k(corpus, query, k), label);
        }
      }
      EXPECT_THROW((void)corpus.top_k(1, 3), util::ContractViolation);
    }
  }
}

TEST(ShardedCorpus, CompactRenumbersDenselyInInsertionOrderPerShard) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  ShardedCorpus corpus(3);
  for (std::size_t i = 0; i < 6; ++i) {
    corpus.add(entries[i].name, embeddings[i]);
  }
  corpus.remove(0);
  corpus.remove(3);
  EXPECT_EQ(corpus.live_count(), 4u);

  const std::vector<std::size_t> mapping = corpus.compact();
  ASSERT_EQ(mapping.size(), 6u);
  EXPECT_EQ(mapping[0], kNoIndex);
  EXPECT_EQ(mapping[3], kNoIndex);
  // Survivors renumber densely in insertion order — the same mapping a
  // single-shard compact() yields, for any shard count.
  EXPECT_EQ(mapping[1], 0u);
  EXPECT_EQ(mapping[2], 1u);
  EXPECT_EQ(mapping[4], 2u);
  EXPECT_EQ(mapping[5], 3u);
  EXPECT_EQ(corpus.size(), 4u);
  EXPECT_EQ(corpus.live_count(), 4u);
  // Names, rows, and shard placement survive the per-shard remap.
  const std::size_t old_ids[] = {1, 2, 4, 5};
  for (std::size_t n = 0; n < 4; ++n) {
    const std::size_t old_id = old_ids[n];
    EXPECT_EQ(corpus.name(n), entries[old_id].name);
    EXPECT_EQ(corpus.shard_of(n),
              ShardedCorpus::placement(entries[old_id].name, 3));
    const std::vector<float> row = corpus.row(n);
    const std::span<const float> expected = embeddings[old_id].data();
    ASSERT_EQ(row.size(), expected.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], expected[k]);
    }
  }
  // And ranking still works against the compacted numbering.
  oracle::expect_same_ranking(corpus.top_k(0, 99), oracle::top_k(corpus, 0, 99),
                              "after compact");
}

TEST(ShardedCorpus, RejectsMismatchedDimsAndBadIndices) {
  ShardedCorpus corpus(2);
  tensor::Matrix a(1, 4, 0.5F);
  tensor::Matrix b(1, 3, 0.5F);
  (void)corpus.add("a", a);
  EXPECT_THROW((void)corpus.add("b", b), util::ContractViolation);
  EXPECT_THROW((void)corpus.name(7), util::ContractViolation);
  EXPECT_THROW((void)corpus.row(7), util::ContractViolation);
  EXPECT_THROW(corpus.remove(7), util::ContractViolation);
  EXPECT_THROW((void)corpus.shard_live_count(5), util::ContractViolation);
  EXPECT_THROW((void)corpus.screen_new_rows(2, 0.5F), util::ContractViolation);
  EXPECT_THROW((void)corpus.top_k(7, 1), util::ContractViolation);
  EXPECT_THROW(ShardedCorpus(0), util::ContractViolation);
}

}  // namespace
}  // namespace gnn4ip::core

namespace gnn4ip::audit {
namespace {

std::vector<train::GraphEntry> audit_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

TEST(ShardedAudit, ScreenReportsBitIdenticalAcrossShardAndWorkerCounts) {
  // The end-to-end acceptance bar: the full ScreenReport stream —
  // acceptance, corpus indices, verdict sets, similarities, best
  // matches — is equal for every shard count × worker count.
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 8u);
  const std::size_t library = 5;

  std::vector<std::vector<ScreenReport>> runs;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      AuditOptions options;
      options.num_shards = shards;
      options.scorer.num_threads = workers;
      options.scorer.delta = -2.0F;  // every resident match is a verdict
      AuditService service(model, options);
      for (std::size_t i = 0; i < library; ++i) {
        ASSERT_TRUE(service.add_library(entries[i]).accepted);
      }
      for (std::size_t i = library; i < entries.size(); ++i) {
        ASSERT_TRUE(service.submit(entries[i]));
      }
      runs.push_back(service.screen());
    }
  }

  const std::vector<ScreenReport>& reference = runs.front();
  ASSERT_EQ(reference.size(), entries.size() - library);
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), reference.size()) << "run " << run;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      const ScreenReport& got = runs[run][r];
      const ScreenReport& want = reference[r];
      EXPECT_EQ(got.submission.name, want.submission.name);
      EXPECT_EQ(got.submission.accepted, want.submission.accepted);
      EXPECT_EQ(got.submission.corpus_index, want.submission.corpus_index);
      ASSERT_EQ(got.verdicts.size(), want.verdicts.size());
      for (std::size_t v = 0; v < want.verdicts.size(); ++v) {
        EXPECT_EQ(got.verdicts[v].matched, want.verdicts[v].matched);
        EXPECT_EQ(got.verdicts[v].corpus_index,
                  want.verdicts[v].corpus_index);
        EXPECT_EQ(got.verdicts[v].similarity, want.verdicts[v].similarity);
        EXPECT_EQ(got.verdicts[v].flagged, want.verdicts[v].flagged);
      }
      ASSERT_EQ(got.best.has_value(), want.best.has_value());
      if (want.best) {
        EXPECT_EQ(got.best->matched, want.best->matched);
        EXPECT_EQ(got.best->similarity, want.best->similarity);
      }
    }
  }
}

TEST(ShardedAudit, TopKBitIdenticalAcrossShardCounts) {
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 6u);

  std::vector<std::vector<Verdict>> runs;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    AuditOptions options;
    options.num_shards = shards;
    options.scorer.delta = -2.0F;
    AuditService service(model, options);
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(service.add_library(entries[i]).accepted);
    }
    runs.push_back(service.top_k(entries[0].name, 4));
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].matched, runs[0][i].matched);
      EXPECT_EQ(runs[run][i].corpus_index, runs[0][i].corpus_index);
      EXPECT_EQ(runs[run][i].similarity, runs[0][i].similarity);
    }
  }
}

TEST(ShardedAudit, EvictionAndResubmissionKeepNameIndexConsistent) {
  // Drive several screen→evict→compact cycles over a sharded corpus and
  // check the service's name index tracks the global remapping.
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 4;
  options.max_resident = 3;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(service.submit(entries[i]));
      (void)service.screen();
    }
  }
  EXPECT_EQ(service.resident(), 3u);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t index = service.index_of(entries[i].name);
    if (index == core::ShardedCorpus::kNoIndex) continue;
    EXPECT_EQ(service.name(index), entries[i].name);
    ++checked;
  }
  EXPECT_EQ(checked, 3u);
}

}  // namespace
}  // namespace gnn4ip::audit
