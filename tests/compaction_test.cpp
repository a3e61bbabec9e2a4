// Compaction edge cases. Every backend — EmbeddingStore, ShardedCorpus
// on {1, 2, 4} shards, DistCorpus on {1, 2, 3} servers — must erase its
// tombstones wherever they sit (head, middle, tail, every row, none),
// also when it was restored from a snapshot that already carries them.
// The mapping must equal a naive reference, and the names, rows and
// liveness must be the survivors'. A following add, screen_new_rows
// and top_k must match the exhaustive oracle run on a store built
// fresh from the survivors, which involves no compaction at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_service.h"
#include "core/corpus_backend.h"
#include "core/embedding_store.h"
#include "core/gnn4ip.h"
#include "core/shard_sweep.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "data/corpus.h"
#include "dist/dist_corpus.h"
#include "exhaustive_oracle.h"
#include "gnn/model_io.h"
#include "shard_cluster.h"

namespace gnn4ip {
namespace {

constexpr std::size_t kNoIndex = core::CorpusBackend::kNoIndex;
constexpr float kDelta = -0.25F;

struct Row {
  std::string name;
  tensor::Matrix embedding;
};

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

struct Placement {
  std::string label;
  std::vector<std::size_t> removed;
};

std::vector<Placement> placements(std::size_t n) {
  std::vector<std::size_t> every(n);
  for (std::size_t i = 0; i < n; ++i) every[i] = i;
  return {{"head", {0}},
          {"middle", {n / 2 - 1, n / 2}},
          {"tail", {n - 1}},
          {"every row", every},
          {"none", {}}};
}

/// What compact() must return: the survivors numbered densely in order.
std::vector<std::size_t> naive_mapping(
    std::size_t n, const std::vector<std::size_t>& removed) {
  std::vector<bool> dead(n, false);
  for (const std::size_t r : removed) dead[r] = true;
  std::vector<std::size_t> mapping(n, kNoIndex);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead[i]) mapping[i] = next++;
  }
  return mapping;
}

/// An EmbeddingStore behind the CorpusBackend calls the checks use:
/// screen_new_rows and top_k through the shard sweeps directly.
struct StoreCorpus {
  core::EmbeddingStore store;

  std::size_t add(std::string name, const tensor::Matrix& embedding) {
    return store.add(std::move(name), embedding);
  }
  void remove(std::size_t i) { store.remove(i); }
  std::vector<std::size_t> compact() { return store.compact(); }
  [[nodiscard]] std::size_t size() const { return store.size(); }
  [[nodiscard]] std::size_t live_count() const { return store.live_count(); }
  [[nodiscard]] bool live(std::size_t i) const { return store.live(i); }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return store.name(i);
  }
  [[nodiscard]] std::vector<float> row(std::size_t i) const {
    return store.row(i);
  }
  [[nodiscard]] std::vector<core::ScreenRow> screen_new_rows(
      std::size_t first_new, float delta) const {
    std::vector<std::vector<float>> probe_rows;
    for (std::size_t q = first_new; q < store.size(); ++q) {
      probe_rows.push_back(store.row(q));
    }
    const std::vector<std::span<const float>> probes(probe_rows.begin(),
                                                     probe_rows.end());
    return core::screen_shard(store, first_new, probes, delta);
  }
  [[nodiscard]] std::vector<core::PairScore> top_k(std::size_t i,
                                                   std::size_t k) const {
    std::vector<core::PairScore> out;
    for (const core::ScreenMatch& m :
         core::top_k_shard(store, store.size(), store.row(i), k, i)) {
      out.push_back({i, m.index, m.similarity});
    }
    return out;
  }
};

/// The survivors of `removed` among the first `n` rows, as a store
/// built by add() alone.
core::EmbeddingStore survivors_store(const std::vector<Row>& rows,
                                     std::size_t n,
                                     const std::vector<std::size_t>& removed) {
  const std::vector<std::size_t> mapping = naive_mapping(n, removed);
  core::EmbeddingStore reference;
  for (std::size_t i = 0; i < n; ++i) {
    if (mapping[i] != kNoIndex) reference.add(rows[i].name, rows[i].embedding);
  }
  return reference;
}

/// `corpus` holds rows[0, n) with `removed` tombstoned. Compact it and
/// check it against the reference, then add rows[n] and screen and rank
/// against the oracle, then compact once more with a fresh tombstone.
template <typename Corpus>
void check_compaction(Corpus& corpus, const std::vector<Row>& rows,
                      std::size_t n, const std::vector<std::size_t>& removed,
                      const std::string& label) {
  ASSERT_EQ(corpus.size(), n) << label;
  EXPECT_EQ(corpus.compact(), naive_mapping(n, removed)) << label;
  core::EmbeddingStore reference = survivors_store(rows, n, removed);
  const std::size_t kept = reference.size();
  ASSERT_EQ(corpus.size(), kept) << label;
  EXPECT_EQ(corpus.live_count(), kept) << label;
  for (std::size_t j = 0; j < kept; ++j) {
    EXPECT_EQ(corpus.name(j), reference.name(j)) << label << ", row " << j;
    EXPECT_TRUE(corpus.live(j)) << label << ", row " << j;
    if constexpr (requires { corpus.row(j); }) {
      const std::vector<float> got = corpus.row(j);
      const std::vector<float> want = reference.row(j);
      ASSERT_EQ(got.size(), want.size()) << label;
      for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(got[d], want[d]) << label << ", row " << j;
      }
    }
  }

  // The add after a compaction lands at the dense end, and everything
  // resident scores as it would in the fresh store.
  EXPECT_EQ(corpus.add(rows[n].name, rows[n].embedding), kept) << label;
  reference.add(rows[n].name, rows[n].embedding);
  oracle::expect_same_screen(corpus.screen_new_rows(kept, kDelta),
                             oracle::screen(reference, kept, kDelta),
                             label + " (add after compact)");
  for (std::size_t i = 0; i < reference.size(); ++i) {
    oracle::expect_same_ranking(corpus.top_k(i, reference.size()),
                                oracle::top_k(reference, i, reference.size()),
                                label + ", top_k of " + std::to_string(i));
  }

  // A second pass: the tombstone tracking starts over after a compact.
  const std::size_t victim = reference.size() / 2;
  corpus.remove(victim);
  EXPECT_EQ(corpus.compact(), naive_mapping(reference.size(), {victim}))
      << label << " (second compact)";
  ASSERT_EQ(corpus.size(), reference.size() - 1) << label;
  for (std::size_t j = 0; j < corpus.size(); ++j) {
    EXPECT_EQ(corpus.name(j), reference.name(j < victim ? j : j + 1))
        << label << " (second compact), row " << j;
  }
}

std::string snapshot_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gnn4ip_compaction_test" / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// rows[0, n) in a ShardedCorpus on `shards` shards, `removed`
/// tombstoned, written as a snapshot under `leaf`.
std::string tombstoned_snapshot(const std::vector<Row>& rows, std::size_t n,
                                const std::vector<std::size_t>& removed,
                                std::size_t shards, const std::string& leaf,
                                const std::string& fingerprint = "fp") {
  core::ShardedCorpus source(shards);
  for (std::size_t i = 0; i < n; ++i) {
    source.add(rows[i].name, rows[i].embedding);
  }
  for (const std::size_t r : removed) source.remove(r);
  const std::string dir = snapshot_dir(leaf);
  source.save(dir, fingerprint);
  return dir;
}

/// Ten designs embedded once: the backends hold the first nine, the
/// tenth is the add that follows each compaction.
class Compaction : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = small_corpus();
    ASSERT_GE(entries_.size(), 10u);
    for (const train::GraphEntry& e : entries_) {
      rows_.push_back({e.name, model_.embed_inference(e.tensors)});
    }
    n_ = 9;
  }

  gnn::Hw2Vec model_;
  std::vector<train::GraphEntry> entries_;
  std::vector<Row> rows_;
  std::size_t n_ = 0;
};

TEST_F(Compaction, EmbeddingStore) {
  for (const Placement& p : placements(n_)) {
    StoreCorpus corpus;
    for (std::size_t i = 0; i < n_; ++i) {
      corpus.add(rows_[i].name, rows_[i].embedding);
    }
    for (const std::size_t r : p.removed) corpus.remove(r);
    check_compaction(corpus, rows_, n_, p.removed, "store, " + p.label);
    EXPECT_EQ(corpus.store.first_removed(), kNoIndex) << p.label;
  }
}

TEST_F(Compaction, EmbeddingStoreLoadedWithTombstones) {
  for (const Placement& p : placements(n_)) {
    core::EmbeddingStore saved;
    for (std::size_t i = 0; i < n_; ++i) {
      saved.add(rows_[i].name, rows_[i].embedding);
    }
    for (const std::size_t r : p.removed) saved.remove(r);
    std::stringstream bytes;
    saved.save(bytes);
    StoreCorpus corpus{core::EmbeddingStore::load(bytes)};
    EXPECT_EQ(corpus.store.first_removed(),
              p.removed.empty() ? kNoIndex : p.removed.front())
        << p.label;
    check_compaction(corpus, rows_, n_, p.removed, "loaded store, " + p.label);
    EXPECT_EQ(corpus.store.first_removed(), kNoIndex) << p.label;
  }
}

TEST_F(Compaction, ShardedCorpus) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const Placement& p : placements(n_)) {
      const std::string label =
          std::to_string(shards) + " shards, " + p.label;
      core::ShardedCorpus corpus(shards);
      for (std::size_t i = 0; i < n_; ++i) {
        corpus.add(rows_[i].name, rows_[i].embedding);
      }
      for (const std::size_t r : p.removed) corpus.remove(r);
      check_compaction(corpus, rows_, n_, p.removed, label);
      for (std::size_t j = 0; j < corpus.size(); ++j) {
        EXPECT_EQ(corpus.shard_of(j),
                  core::ShardedCorpus::placement(corpus.name(j), shards))
            << label;
      }
    }
  }
}

TEST_F(Compaction, ShardedCorpusRestoredWithTombstones) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const Placement& p : placements(n_)) {
      const std::string label =
          "restored, " + std::to_string(shards) + " shards, " + p.label;
      const std::string dir =
          tombstoned_snapshot(rows_, n_, p.removed, shards, "sharded");
      core::ShardedCorpus corpus;
      corpus.restore(dir, "fp");
      check_compaction(corpus, rows_, n_, p.removed, label);
    }
  }
}

TEST_F(Compaction, DistCorpus) {
  for (const std::size_t servers : {1u, 2u, 3u}) {
    for (const Placement& p : placements(n_)) {
      const std::string label =
          std::to_string(servers) + " servers, " + p.label;
      Cluster cluster(servers);
      auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
      for (std::size_t i = 0; i < n_; ++i) {
        corpus->add(rows_[i].name, rows_[i].embedding);
      }
      for (const std::size_t r : p.removed) corpus->remove(r);
      check_compaction(*corpus, rows_, n_, p.removed, label);
      std::size_t live = 0;
      for (std::size_t s = 0; s < servers; ++s) {
        live += corpus->shard_live_count(s);
      }
      EXPECT_EQ(live, corpus->live_count()) << label;
    }
  }
}

TEST_F(Compaction, DistCorpusRestoredWithTombstones) {
  for (const std::size_t servers : {1u, 2u, 3u}) {
    for (const Placement& p : placements(n_)) {
      const std::string label =
          "restored, " + std::to_string(servers) + " servers, " + p.label;
      const std::string dir =
          tombstoned_snapshot(rows_, n_, p.removed, servers, "dist");
      Cluster cluster(servers);
      auto empty = dist::DistCorpus::connect(cluster.endpoints(), "fp");
      std::unique_ptr<core::CorpusBackend> corpus = empty->restored(dir, "fp");
      check_compaction(*corpus, rows_, n_, p.removed, label);
    }
  }
}

TEST_F(Compaction, AuditServiceRemapsEveryNameAfterLoadingOlderTombstones) {
  // A snapshot whose corpus still carries a tombstone below the
  // residents: the first commit after the load compacts it away along
  // with its own victim, so every resident from the old tombstone on
  // moves — not only those past this commit's eviction.
  const std::string dir = tombstoned_snapshot(
      rows_, 5, {1}, 2, "service", gnn::model_fingerprint(model_));
  {
    std::ofstream os(std::filesystem::path(dir) / core::kServiceFileName);
    os << core::kServiceMagic << " v" << core::kServiceFormatVersion << '\n'
       << "resident 4\n";
    for (const std::size_t i : {0u, 2u, 3u, 4u}) {
      os << "entry " << i << ' ' << rows_[i].name << '\n';
    }
    os << "pins 1\npin " << rows_[0].name << "\nend\n";
  }

  audit::AuditOptions options;
  options.num_shards = 2;
  options.max_resident = 4;
  audit::AuditService service(model_, options);
  service.load_corpus(dir);
  ASSERT_EQ(service.resident(), 4u);
  ASSERT_EQ(service.corpus().size(), 5u);

  // The new row is admitted at 5 and the oldest unpinned row (2) goes.
  ASSERT_TRUE(service.submit(entries_[5]));
  const std::vector<audit::ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].submission.accepted);
  EXPECT_EQ(reports[0].submission.corpus_index, 3u);

  const std::vector<std::string> expected = {rows_[0].name, rows_[3].name,
                                             rows_[4].name, rows_[5].name};
  ASSERT_EQ(service.resident(), expected.size());
  ASSERT_EQ(service.corpus().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(service.name(i), expected[i]);
    EXPECT_EQ(service.index_of(service.name(i)), i) << expected[i];
  }
  EXPECT_FALSE(service.contains(rows_[1].name));
  EXPECT_FALSE(service.contains(rows_[2].name));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gnn4ip
