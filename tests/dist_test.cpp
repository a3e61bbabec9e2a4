// Distributed-corpus tests: the acceptance bar is that distribution is
// *invisible* to results — a DistCorpus fronting {1, 2, 3} shard-server
// processes produces screen_new_rows()/top_k() output bit-identical to
// the exhaustive oracle (scan tallies included), through mutation churn
// (remove/compact), snapshot round trips in both directions, and the
// full AuditService end to end. Servers here are real ShardServer
// instances on ephemeral loopback ports — the same bytes-over-TCP path
// production takes, minus process isolation.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "data/corpus.h"
#include "dist/dist_corpus.h"
#include "exhaustive_oracle.h"
#include "gnn/model_io.h"
#include "net/wire_format.h"
#include "shard_cluster.h"

namespace gnn4ip {
namespace {

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

std::vector<tensor::Matrix> embed_all(gnn::Hw2Vec& model,
                                      std::span<const train::GraphEntry> e) {
  std::vector<tensor::Matrix> out;
  out.reserve(e.size());
  for (const train::GraphEntry& entry : e) {
    out.push_back(model.embed_inference(entry.tensors));
  }
  return out;
}

std::string snapshot_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gnn4ip_dist_test" / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(DistCorpus, ParseEndpointsAcceptsListsRejectsGarbage) {
  const auto eps = dist::parse_endpoints("127.0.0.1:9001,localhost:80");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 9001);
  EXPECT_EQ(eps[1].host, "localhost");
  EXPECT_EQ(eps[1].port, 80);
  EXPECT_THROW((void)dist::parse_endpoints(""), net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("hostonly"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints(":80"), net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:0"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:70000"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:12x"),
               net::WireConnectionError);
}

TEST(DistCorpus, ConnectRefusesDeadAndNonEmptyServers) {
  EXPECT_THROW((void)dist::DistCorpus::connect({{"127.0.0.1", 1}}, ""),
               net::WireConnectionError);

  Cluster cluster(1);
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  auto first = dist::DistCorpus::connect(cluster.endpoints(), "fp");
  ASSERT_EQ(first->add(entries[0].name, embeddings[0]), 0u);
  // Hang up so the single-front-end server can service the next
  // connection; the buffered admission flushes on the way out.
  first.reset();
  // A second fresh corpus must refuse the now-populated server...
  EXPECT_THROW((void)dist::DistCorpus::connect(cluster.endpoints(), "fp"),
               net::WireProtocolError);
  // ...and a fingerprint disagreement is its own typed refusal.
  EXPECT_THROW((void)dist::DistCorpus::connect(cluster.endpoints(), "other",
                                               {}, true),
               net::WireFingerprintError);
}

TEST(DistCorpus, MirrorsIndexSpaceAndPlacement) {
  Cluster cluster(3);
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(corpus->add(entries[i].name, embeddings[i]), i);
  }
  EXPECT_EQ(corpus->size(), 6u);
  EXPECT_EQ(corpus->live_count(), 6u);
  EXPECT_EQ(corpus->num_shards(), 3u);
  std::size_t shard_total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    shard_total += corpus->shard_live_count(s);
  }
  EXPECT_EQ(shard_total, 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(corpus->name(i), entries[i].name);
    EXPECT_EQ(corpus->shard_of(i),
              core::ShardedCorpus::placement(entries[i].name, 3));
    EXPECT_TRUE(corpus->live(i));
  }
  corpus->remove(1);
  EXPECT_FALSE(corpus->live(1));
  EXPECT_EQ(corpus->live_count(), 5u);
}

TEST(DistCorpus, ScreenAndTopKMatchOracleThroughChurn) {
  // The tentpole grid: {1, 2, 3} shard servers, verdicts and scan
  // tallies compared cell by cell against the exhaustive oracle over an
  // in-process mirror of the same rows — including through a tombstone
  // and a compaction that churns every local index.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  for (const std::size_t shards : {1u, 2u, 3u}) {
    const std::string label = std::to_string(shards) + " shards";
    core::ShardedCorpus mirror(shards);
    Cluster cluster(shards);
    auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      ASSERT_EQ(corpus->add(entries[i].name, embeddings[i]),
                mirror.add(entries[i].name, embeddings[i]));
    }
    mirror.remove(1);
    corpus->remove(1);

    oracle::expect_same_screen(corpus->screen_new_rows(resident, -0.25F),
                               oracle::screen(mirror, resident, -0.25F),
                               label);
    for (const std::size_t k : {1u, 5u, 99u}) {
      oracle::expect_same_ranking(corpus->top_k(0, k),
                                  oracle::top_k(mirror, 0, k),
                                  label + ", k " + std::to_string(k));
    }

    EXPECT_EQ(corpus->compact(), mirror.compact())
        << label << " (compact mapping)";
    oracle::expect_same_screen(corpus->screen_new_rows(resident - 1, -0.25F),
                               oracle::screen(mirror, resident - 1, -0.25F),
                               label + " (post-compact)");
    oracle::expect_same_ranking(corpus->top_k(2, 4),
                                oracle::top_k(mirror, 2, 4),
                                label + " (post-compact)");
  }
}

TEST(DistCorpus, SnapshotRoundTripsBothDirections) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  // Write from the distributed corpus (each server writes its own shard
  // file, the front end writes the manifest)...
  const std::string dir = snapshot_dir("dist_to_inproc");
  {
    Cluster cluster(2);
    auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
    for (std::size_t i = 0; i < 6; ++i) {
      corpus->add(entries[i].name, embeddings[i]);
    }
    corpus->remove(2);  // tombstones must survive the trip
    corpus->save(dir, "fp");
  }
  // ...restore in-process and compare verdicts against a straight build.
  core::ShardedCorpus restored(2);
  restored.restore(dir, "fp");
  core::ShardedCorpus straight(2);
  for (std::size_t i = 0; i < 6; ++i) {
    straight.add(entries[i].name, embeddings[i]);
  }
  straight.remove(2);
  EXPECT_EQ(restored.size(), straight.size());
  EXPECT_EQ(restored.live_count(), straight.live_count());
  oracle::expect_same_screen(restored.screen_new_rows(3, -2.0F),
                             oracle::screen(straight, 3, -2.0F),
                             "dist->inproc");

  // And back: an in-process snapshot restored into a distributed corpus
  // (cold servers — the reset-and-push path).
  const std::string dir2 = snapshot_dir("inproc_to_dist");
  straight.save(dir2, "fp");
  Cluster cluster(2);
  auto fresh = dist::DistCorpus::connect(cluster.endpoints(), "fp");
  auto adopted = fresh->restored(dir2, "fp");
  EXPECT_EQ(adopted->size(), straight.size());
  EXPECT_EQ(adopted->live_count(), straight.live_count());
  EXPECT_FALSE(adopted->live(2));
  oracle::expect_same_screen(adopted->screen_new_rows(3, -2.0F),
                             oracle::screen(straight, 3, -2.0F),
                             "inproc->dist");
  oracle::expect_same_ranking(adopted->top_k(0, 4),
                              oracle::top_k(straight, 0, 4),
                              "inproc->dist top_k");
}

TEST(DistCorpus, UnreconciledServersRefuseUseUntilRestore) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  // Populate one server, snapshot, then reconnect with allow_resident:
  // every operation must refuse until restored() reconciles.
  const std::string dir = snapshot_dir("unreconciled");
  Cluster cluster(1);
  {
    auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
    for (std::size_t i = 0; i < 4; ++i) {
      corpus->add(entries[i].name, embeddings[i]);
    }
    corpus->save(dir, "fp");
  }
  auto raw = dist::DistCorpus::connect(cluster.endpoints(), "fp", {},
                                       /*allow_resident=*/true);
  EXPECT_THROW((void)raw->add("x", embeddings[0]), net::WireProtocolError);
  EXPECT_THROW((void)raw->screen_new_rows(2, -0.5F), net::WireProtocolError);
  EXPECT_THROW(raw->save(snapshot_dir("refused"), "fp"),
               net::WireProtocolError);
  // restored() reconciles — here by adopting the resident rows without
  // a push (the tallies match the snapshot).
  auto adopted = raw->restored(dir, "fp");
  EXPECT_EQ(adopted->size(), 4u);
  core::ShardedCorpus straight(1);
  for (std::size_t i = 0; i < 4; ++i) {
    straight.add(entries[i].name, embeddings[i]);
  }
  oracle::expect_same_screen(adopted->screen_new_rows(2, -2.0F),
                             oracle::screen(straight, 2, -2.0F), "adopted");
}

TEST(DistAudit, ScreenReportsBitIdenticalToInProcess) {
  // End to end through AuditService: the full ScreenReport stream and
  // post-screen top_k from a service backed by remote shard servers
  // equal the in-process service's, for the same shard count.
  gnn::Hw2Vec model;
  const std::string fingerprint = gnn::model_fingerprint(model);
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const std::size_t library = 5;

  audit::AuditOptions options;
  options.num_shards = 2;
  options.scorer.delta = -2.0F;  // every resident match is a verdict

  audit::AuditService reference(model, options);
  Cluster cluster(2);
  audit::AuditService distributed(
      model, options,
      dist::DistCorpus::connect(cluster.endpoints(), fingerprint,
                                options.scorer));

  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(reference.add_library(entries[i]).accepted);
    ASSERT_TRUE(distributed.add_library(entries[i]).accepted);
  }
  for (std::size_t i = library; i < entries.size(); ++i) {
    ASSERT_TRUE(reference.submit(entries[i]));
    ASSERT_TRUE(distributed.submit(entries[i]));
  }
  const std::vector<audit::ScreenReport> want = reference.screen();
  const std::vector<audit::ScreenReport> got = distributed.screen();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].submission.name, want[r].submission.name);
    EXPECT_EQ(got[r].submission.corpus_index, want[r].submission.corpus_index);
    ASSERT_EQ(got[r].verdicts.size(), want[r].verdicts.size());
    for (std::size_t v = 0; v < want[r].verdicts.size(); ++v) {
      EXPECT_EQ(got[r].verdicts[v].matched, want[r].verdicts[v].matched);
      EXPECT_EQ(got[r].verdicts[v].corpus_index,
                want[r].verdicts[v].corpus_index);
      EXPECT_EQ(got[r].verdicts[v].similarity,
                want[r].verdicts[v].similarity);
    }
    ASSERT_EQ(got[r].best.has_value(), want[r].best.has_value());
    if (want[r].best) {
      EXPECT_EQ(got[r].best->matched, want[r].best->matched);
      EXPECT_EQ(got[r].best->similarity, want[r].best->similarity);
    }
  }
  const auto want_top = reference.top_k(entries[0].name, 4);
  const auto got_top = distributed.top_k(entries[0].name, 4);
  ASSERT_EQ(got_top.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(got_top[i].matched, want_top[i].matched);
    EXPECT_EQ(got_top[i].similarity, want_top[i].similarity);
  }
}

TEST(DistCorpus, ServerDeathMidConversationIsTypedNotAHang) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  auto cluster = std::make_unique<Cluster>(2);
  auto corpus = dist::DistCorpus::connect(cluster->endpoints(), "fp");
  for (std::size_t i = 0; i < 4; ++i) {
    corpus->add(entries[i].name, embeddings[i]);
  }
  ASSERT_FALSE(corpus->screen_new_rows(2, -2.0F).front().flagged.empty());
  // Kill both servers (stop + connection teardown), then screen: the
  // dead cluster must surface as a typed WireError, never a hang.
  cluster.reset();
  EXPECT_THROW((void)corpus->screen_new_rows(2, -2.0F), net::WireError);
}

}  // namespace
}  // namespace gnn4ip
