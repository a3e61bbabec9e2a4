#include "core/sharded_corpus.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/shard_sweep.h"
#include "core/snapshot_format.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace gnn4ip::core {

ShardedCorpus::ShardedCorpus(std::size_t num_shards,
                             const ScorerOptions& options)
    : options_(options) {
  GNN4IP_ENSURE(num_shards > 0, "ShardedCorpus: need at least one shard");
  shards_.resize(num_shards);
  globals_.resize(num_shards);
}

std::size_t ShardedCorpus::placement(std::string_view name,
                                     std::size_t num_shards) {
  GNN4IP_ENSURE(num_shards > 0, "ShardedCorpus: need at least one shard");
  // FNV-1a, 64-bit: stable across processes and platforms (std::hash is
  // not), so a design's shard is a durable property of its name.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h % num_shards);
}

std::size_t ShardedCorpus::add(std::string name,
                               const tensor::Matrix& embedding) {
  GNN4IP_ENSURE(!embedding.empty(), "ShardedCorpus: empty embedding");
  if (dim_ == 0) {
    dim_ = embedding.size();
  } else {
    GNN4IP_ENSURE(embedding.size() == dim_,
                  "ShardedCorpus: embedding dim " +
                      std::to_string(embedding.size()) + " != corpus dim " +
                      std::to_string(dim_));
  }
  const std::size_t s = placement(name, shards_.size());
  const std::size_t global = entries_.size();
  const std::size_t local = shards_[s].add(std::move(name), embedding);
  entries_.push_back({s, local});
  globals_[s].push_back(global);
  ++live_count_;
  return global;
}

const std::string& ShardedCorpus::name(std::size_t i) const {
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: index out of range");
  return shards_[entries_[i].shard].name(entries_[i].local);
}

std::vector<float> ShardedCorpus::row(std::size_t i) const {
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: row index out of range");
  return shards_[entries_[i].shard].row(entries_[i].local);
}

void ShardedCorpus::remove(std::size_t i) {
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: remove out of range");
  shards_[entries_[i].shard].remove(entries_[i].local);
  --live_count_;
}

bool ShardedCorpus::live(std::size_t i) const {
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: index out of range");
  return shards_[entries_[i].shard].live(entries_[i].local);
}

std::vector<std::size_t> ShardedCorpus::compact() {
  // Renumber from the lowest removed global (each shard's lowest
  // tombstone, mapped through its ascending local→global table), then
  // let each store erase its own tombstones: both number the survivors
  // densely in insertion order, so they stay in step — the numbering a
  // single-shard compact() would have produced, for any shard count.
  std::size_t first = entries_.size();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t local = shards_[s].first_removed();
    if (local != kNoIndex) first = std::min(first, globals_[s][local]);
  }
  std::vector<std::size_t> mapping = compact_global_index(
      entries_, globals_, first,
      [this](std::size_t, const EntryRef& e) {
        return shards_[e.shard].live(e.local);
      });
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].first_removed() != kNoIndex) (void)shards_[s].compact();
    GNN4IP_ENSURE(shards_[s].size() == globals_[s].size(),
                  "ShardedCorpus: shard out of step with the global index");
  }
  live_count_ = entries_.size();
  return mapping;
}

std::size_t ShardedCorpus::shard_of(std::size_t i) const {
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: index out of range");
  return entries_[i].shard;
}

std::size_t ShardedCorpus::shard_live_count(std::size_t s) const {
  GNN4IP_ENSURE(s < shards_.size(), "ShardedCorpus: shard out of range");
  return shards_[s].live_count();
}

std::vector<ScreenRow> ShardedCorpus::screen_new_rows(std::size_t first_new,
                                                      float delta) const {
  GNN4IP_ENSURE(first_new <= entries_.size(),
                "screen_new_rows: first_new past the corpus end");
  if (first_new == entries_.size()) return {};
  // The probe copies outlive every shard's sweep over their views.
  std::vector<std::vector<float>> probe_rows;
  probe_rows.reserve(entries_.size() - first_new);
  for (std::size_t g = first_new; g < entries_.size(); ++g) {
    probe_rows.push_back(row(g));
  }
  const std::vector<std::span<const float>> probes(probe_rows.begin(),
                                                   probe_rows.end());
  // Candidates are each shard's rows admitted before first_new.
  std::vector<std::vector<ScreenRow>> partials(shards_.size());
  fan_out(shards_.size(), [&](std::size_t s) {
    partials[s] =
        screen_shard(shards_[s], prefix_below(globals_[s], first_new), probes,
                     delta);
  });
  return merge_screen(partials, globals_);
}

std::vector<PairScore> ShardedCorpus::top_k(std::size_t i,
                                            std::size_t k) const {
  GNN4IP_ENSURE(i < entries_.size(), "top_k: row index out of range");
  const EntryRef query_ref = entries_[i];
  GNN4IP_ENSURE(shards_[query_ref.shard].live(query_ref.local),
                "top_k: row has been removed");
  const std::vector<float> query = row(i);
  // Each shard's top-min(k) prefix, in its local order (= global order
  // within the shard); the global top-k is a subset of their union.
  std::vector<std::vector<ScreenMatch>> prefixes(shards_.size());
  fan_out(shards_.size(), [&](std::size_t s) {
    const std::size_t exclude =
        s == query_ref.shard ? query_ref.local : kNoIndex;
    prefixes[s] = top_k_shard(shards_[s], shards_[s].size(), query, k, exclude);
  });
  return merge_top_k(prefixes, globals_, i, k);
}

void ShardedCorpus::fan_out(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (options_.num_threads > 1) {
    // Concurrent consumers may race the first fan_out; the spawn is
    // one-time, so a plain mutex around the check is cheap enough. The
    // raw pointer is captured *under* the lock: the unique_ptr is
    // guarded, never reset once set, and outlives every fan-out, so the
    // pointee is safe to use after release.
    util::ThreadPool* pool = nullptr;
    {
      util::MutexLock lock(pool_mu_);
      if (!pool_) {
        pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
      }
      pool = pool_.get();
    }
    pool->parallel_for(count, fn);
    return;
  }
  // 0 = shared pool, 1 = inline — util::parallel_for already does the
  // right (transient-pool-free) thing for both.
  util::parallel_for(count, options_.num_threads, fn);
}

void ShardedCorpus::save(const std::string& dir,
                         std::string_view model_fingerprint) const {
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw SnapshotIoError("cannot create snapshot directory '" + dir +
                          "': " + ec.message());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::filesystem::path path = root / shard_file_name(s);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotIoError("cannot open '" + path.string() +
                            "' for writing");
    }
    shards_[s].save(os);
    if (!os) {
      throw SnapshotIoError("short write to '" + path.string() + "'");
    }
  }
  CorpusManifest manifest{std::string(model_fingerprint), dim_,
                          shards_.size(), {}};
  manifest.order.reserve(entries_.size());
  for (const EntryRef& e : entries_) manifest.order.push_back(e.shard);
  write_manifest(root / kManifestFileName, manifest);
}

void ShardedCorpus::restore(const std::string& dir,
                            std::string_view expected_fingerprint) {
  const std::filesystem::path root(dir);
  const CorpusManifest manifest = parse_manifest(root / kManifestFileName);
  if (!expected_fingerprint.empty() &&
      manifest.fingerprint != expected_fingerprint) {
    throw SnapshotFingerprintError(
        "snapshot was written against model fingerprint " +
        manifest.fingerprint + " but this corpus expects " +
        std::string(expected_fingerprint) +
        " — refusing to score rows from a different embedder");
  }
  // Load and cross-check everything into locals first: a snapshot that
  // fails any typed check leaves the in-memory corpus untouched.
  std::vector<EmbeddingStore> stores;
  stores.reserve(manifest.shards);
  for (std::size_t s = 0; s < manifest.shards; ++s) {
    const std::filesystem::path path = root / shard_file_name(s);
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      if (!std::filesystem::exists(path)) {
        throw SnapshotManifestError(
            "manifest declares " + std::to_string(manifest.shards) +
            " shards but '" + shard_file_name(s) +
            "' is missing (shard-count mismatch?)");
      }
      throw SnapshotIoError("cannot open '" + path.string() +
                            "' for reading");
    }
    stores.push_back(EmbeddingStore::load(is, manifest.dim));
  }
  // The manifest's global order must tally with the shard files: every
  // shard row is referenced exactly once, in shard-local insertion
  // order, and the recorded shard must match what placement() derives
  // from the row's name — a poisoned or mixed-up snapshot fails loudly.
  std::vector<std::vector<std::size_t>> globals(manifest.shards);
  std::vector<EntryRef> entries;
  entries.reserve(manifest.order.size());
  for (std::size_t g = 0; g < manifest.order.size(); ++g) {
    const std::size_t s = manifest.order[g];
    const std::size_t local = globals[s].size();
    if (local >= stores[s].size()) {
      throw SnapshotManifestError(
          "manifest order assigns more rows to shard " + std::to_string(s) +
          " than its file holds (" + std::to_string(stores[s].size()) + ")");
    }
    if (placement(stores[s].name(local), manifest.shards) != s) {
      throw SnapshotManifestError(
          "row '" + stores[s].name(local) + "' is recorded in shard " +
          std::to_string(s) + " but places in shard " +
          std::to_string(placement(stores[s].name(local), manifest.shards)) +
          " (placement drift)");
    }
    globals[s].push_back(g);
    entries.push_back({s, local});
  }
  std::size_t live = 0;
  for (std::size_t s = 0; s < manifest.shards; ++s) {
    if (stores[s].size() != 0 && stores[s].dim() != manifest.dim) {
      throw SnapshotDimError(
          "shard " + std::to_string(s) + " has dim " +
          std::to_string(stores[s].dim()) + " but the manifest declares " +
          std::to_string(manifest.dim) + " (dim drift)");
    }
    if (globals[s].size() != stores[s].size()) {
      throw SnapshotManifestError(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(stores[s].size()) +
          " rows but the manifest order references " +
          std::to_string(globals[s].size()));
    }
    live += stores[s].live_count();
  }
  shards_ = std::move(stores);
  entries_ = std::move(entries);
  globals_ = std::move(globals);
  dim_ = manifest.dim;
  live_count_ = live;
}

std::unique_ptr<CorpusBackend> ShardedCorpus::restored(
    const std::string& dir, std::string_view expected_fingerprint) const {
  // restore() adopts the snapshot's shard count and dim, so a fresh
  // single-shard corpus is the universal starting point; options carry
  // over from the receiver.
  auto fresh = std::make_unique<ShardedCorpus>(1, options_);
  fresh->restore(dir, expected_fingerprint);
  return fresh;
}

std::string ShardedCorpus::snapshot_fingerprint(const std::string& dir) {
  return parse_manifest(std::filesystem::path(dir) / kManifestFileName)
      .fingerprint;
}

}  // namespace gnn4ip::core
