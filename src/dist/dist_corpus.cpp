#include "dist/dist_corpus.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>

#include "core/shard_sweep.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "net/wire_format.h"
#include "util/contract.h"

namespace gnn4ip::dist {

namespace {

using core::PairScore;
using core::ScreenMatch;
using core::ScreenRow;
using net::FrameBuilder;
using net::FrameCursor;
using net::MsgType;

constexpr std::uint64_t kNoLocal = std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::vector<Endpoint> parse_endpoints(std::string_view spec) {
  std::vector<Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == item.size()) {
      throw net::WireConnectionError("malformed endpoint '" +
                                     std::string(item) +
                                     "' (expected host:port)");
    }
    Endpoint ep;
    ep.host = std::string(item.substr(0, colon));
    unsigned long port = 0;
    const std::string port_text(item.substr(colon + 1));
    try {
      std::size_t used = 0;
      port = std::stoul(port_text, &used);
      if (used != port_text.size()) port = 0;
    } catch (const std::exception&) {
      port = 0;
    }
    if (port == 0 || port > 65535) {
      throw net::WireConnectionError("endpoint '" + std::string(item) +
                                     "' has no valid port (1..65535)");
    }
    ep.port = static_cast<std::uint16_t>(port);
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    throw net::WireConnectionError(
        "empty endpoint list (expected host:port[,host:port...])");
  }
  return endpoints;
}

std::unique_ptr<DistCorpus> DistCorpus::connect(
    const std::vector<Endpoint>& endpoints, std::string model_fingerprint,
    const core::ScorerOptions& options, bool allow_resident) {
  GNN4IP_ENSURE(!endpoints.empty(), "DistCorpus: need at least one shard");
  bool any_resident = false;
  auto shared = std::make_shared<ChannelSet>();
  {
    util::MutexLock lock(shared->mu);
    std::vector<std::uint8_t> buf;
    for (const Endpoint& ep : endpoints) {
      Channel ch;
      ch.endpoint = ep;
      ch.sock = net::Socket::connect_to(ep.host, ep.port);
      buf.clear();
      FrameBuilder hello(buf, MsgType::kHello);
      hello.put_bytes(net::kWireMagic, sizeof(net::kWireMagic));
      hello.put_u32(net::kWireVersion);
      hello.put_u32(net::kWireByteOrderMark);
      hello.put_u32(0);  // dim unknown until the first admission
      hello.put_string(model_fingerprint);
      hello.finish();
      ch.sock.write_all(buf.data(), buf.size());
      const net::Frame ack = net::expect_frame(ch.sock, MsgType::kHelloAck);
      FrameCursor cur(ack.payload);
      (void)cur.get_u32("shard dim");
      const std::uint64_t rows = cur.get_u64("shard rows");
      (void)cur.get_u64("shard live rows");
      const std::string server_fp = cur.get_string("shard fingerprint");
      cur.done("HelloAck");
      if (!model_fingerprint.empty() && !server_fp.empty() &&
          server_fp != model_fingerprint) {
        throw net::WireFingerprintError(
            "shard " + ep.host + ":" + std::to_string(ep.port) +
            " serves model " + server_fp + " but this client embeds with " +
            model_fingerprint);
      }
      if (rows != 0) {
        if (!allow_resident) {
          throw net::WireProtocolError(
              "shard " + ep.host + ":" + std::to_string(ep.port) +
              " already holds " + std::to_string(rows) +
              " rows — a fresh DistCorpus owns its cluster's contents; "
              "restore a snapshot to adopt pre-loaded shards");
        }
        any_resident = true;
      }
      shared->channels.push_back(std::move(ch));
    }
  }
  auto corpus = std::unique_ptr<DistCorpus>(
      new DistCorpus(std::move(shared), options,
                     std::move(model_fingerprint)));
  {
    util::MutexLock lock(corpus->shared_->mu);
    corpus->unreconciled_ = any_resident;
  }
  return corpus;
}

void DistCorpus::check_reconciled_locked() const {
  if (unreconciled_) {
    throw net::WireProtocolError(
        "the shard servers hold resident rows this corpus has not "
        "adopted; restore their snapshot (--load-corpus) before using it");
  }
}

DistCorpus::DistCorpus(std::shared_ptr<ChannelSet> channels,
                       const core::ScorerOptions& options,
                       std::string fingerprint)
    : options_(options),
      fingerprint_(std::move(fingerprint)),
      shared_(std::move(channels)) {
  util::MutexLock lock(shared_->mu);
  globals_.resize(shared_->channels.size());
  shard_live_.assign(shared_->channels.size(), 0);
}

DistCorpus::~DistCorpus() {
  // Push any still-buffered one-way mutations out — a shard restarted
  // from its own SaveShard file must not be missing the tail of an
  // admission batch. A dead peer here is not worth terminating over.
  util::MutexLock lock(shared_->mu);
  for (Channel& ch : shared_->channels) {
    try {
      flush_locked(ch);
    } catch (const net::WireError&) {
    }
  }
}

void DistCorpus::flush_locked(Channel& ch) const {
  if (ch.sendbuf.empty()) return;
  ch.sock.write_all(ch.sendbuf.data(), ch.sendbuf.size());
  ch.sendbuf.clear();
}

void DistCorpus::buffer_flush_locked(Channel& ch) const {
  if (ch.sendbuf.size() > net::kFlushThresholdBytes) flush_locked(ch);
}

std::size_t DistCorpus::admit_mirror_locked(std::string name,
                                            std::span<const float> row) {
  const std::size_t s =
      core::ShardedCorpus::placement(name, globals_.size());
  const std::size_t g = entries_.size();
  entries_.push_back({s, globals_[s].size()});
  globals_[s].push_back(g);
  rows_.insert(rows_.end(), row.begin(), row.end());
  names_.push_back(std::move(name));
  live_.push_back(1);
  ++live_count_;
  ++shard_live_[s];
  return g;
}

std::size_t DistCorpus::add(std::string name,
                            const tensor::Matrix& embedding) {
  GNN4IP_ENSURE(!embedding.empty(), "DistCorpus: empty embedding");
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  const std::span<const float> flat = embedding.data();
  if (dim_ == 0) {
    dim_ = flat.size();
  } else {
    GNN4IP_ENSURE(flat.size() == dim_,
                  "DistCorpus: embedding dim " + std::to_string(flat.size()) +
                      " != corpus dim " + std::to_string(dim_));
  }
  const std::size_t g = admit_mirror_locked(std::move(name), flat);
  Channel& ch = shared_->channels[entries_[g].shard];
  FrameBuilder b(ch.sendbuf, MsgType::kAdmitRows);
  b.put_u32(static_cast<std::uint32_t>(dim_));
  b.put_u32(1);
  b.put_string(names_[g]);
  b.put_bytes(flat.data(), flat.size() * sizeof(float));
  b.finish();
  buffer_flush_locked(ch);
  return g;
}

void DistCorpus::remove(std::size_t i) {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: remove out of range");
  GNN4IP_ENSURE(live_[i] != 0, "DistCorpus: row already removed");
  const core::EntryRef e = entries_[i];
  live_[i] = 0;
  --live_count_;
  first_removed_ = std::min(first_removed_, i);
  --shard_live_[e.shard];
  Channel& ch = shared_->channels[e.shard];
  FrameBuilder b(ch.sendbuf, MsgType::kRemove);
  b.put_u64(e.local);
  b.finish();
  buffer_flush_locked(ch);
}

std::vector<std::size_t> DistCorpus::compact() {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  // The renumbering ShardedCorpus::compact runs, from the lowest
  // removed global: each server's EmbeddingStore::compact derives the
  // same local numbering from its own tombstones. The mirror's rows and
  // names below that global keep their place; the survivors above it
  // move down in place, so the buffers keep their capacity.
  const std::size_t first = std::min(first_removed_, entries_.size());
  std::vector<std::size_t> mapping = core::compact_global_index(
      entries_, globals_, first,
      [this](std::size_t g, const core::EntryRef&) { return live_[g] != 0; });
  for (std::size_t g = first; g < mapping.size(); ++g) {
    const std::size_t to = mapping[g];
    if (to == kNoIndex || to == g) continue;
    std::copy(rows_.begin() + static_cast<std::ptrdiff_t>(g * dim_),
              rows_.begin() + static_cast<std::ptrdiff_t>((g + 1) * dim_),
              rows_.begin() + static_cast<std::ptrdiff_t>(to * dim_));
    names_[to] = std::move(names_[g]);
  }
  const std::size_t live = entries_.size();
  rows_.resize(live * dim_);
  names_.resize(live);
  std::fill(live_.begin() + static_cast<std::ptrdiff_t>(first),
            live_.begin() + static_cast<std::ptrdiff_t>(live), 1);
  live_.resize(live);
  live_count_ = live;
  first_removed_ = kNoIndex;
  for (std::size_t s = 0; s < globals_.size(); ++s) {
    shard_live_[s] = globals_[s].size();
  }
  for (Channel& ch : shared_->channels) {
    FrameBuilder b(ch.sendbuf, MsgType::kCompact);
    b.finish();
    buffer_flush_locked(ch);
  }
  return mapping;
}

std::size_t DistCorpus::size() const {
  util::MutexLock lock(shared_->mu);
  return entries_.size();
}

std::size_t DistCorpus::dim() const {
  util::MutexLock lock(shared_->mu);
  return dim_;
}

std::size_t DistCorpus::live_count() const {
  util::MutexLock lock(shared_->mu);
  return live_count_;
}

bool DistCorpus::live(std::size_t i) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: index out of range");
  return live_[i] != 0;
}

const std::string& DistCorpus::name(std::size_t i) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: index out of range");
  // Deque references are stable across admissions; compact() rebuilds
  // the deque — the same invalidation contract as ShardedCorpus.
  return names_[i];
}

std::size_t DistCorpus::num_shards() const {
  util::MutexLock lock(shared_->mu);
  return globals_.size();
}

std::size_t DistCorpus::shard_of(std::size_t i) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: index out of range");
  return entries_[i].shard;
}

std::size_t DistCorpus::shard_live_count(std::size_t s) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(s < shard_live_.size(), "DistCorpus: shard out of range");
  return shard_live_[s];
}

std::vector<ScreenRow> DistCorpus::screen_new_rows(std::size_t first_new,
                                                   float delta) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(first_new <= entries_.size(),
                "screen_new_rows: first_new past the corpus end");
  const std::size_t new_rows = entries_.size() - first_new;
  if (new_rows == 0) return {};
  const std::size_t d = dim_;
  const std::size_t shard_count = globals_.size();
  const std::size_t tail_bytes = new_rows * d * sizeof(float);
  const float* probe_block = rows_.data() + first_new * d;

  // Pipelined fan-out: write every shard's request (header from the
  // send buffer, the N×D probe slab as a writev tail straight out of
  // the mirror — no copy), then read responses in shard order. The
  // shard processes overlap their sweeps while we wait on the first.
  std::vector<std::size_t> limits(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    // Candidates are this shard's rows admitted before first_new — an
    // ascending prefix of its local order.
    limits[s] = core::prefix_below(globals_[s], first_new);
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kScreen);
    b.put_u32(static_cast<std::uint32_t>(d));
    b.put_u32(static_cast<std::uint32_t>(new_rows));
    b.put_f32(delta);
    b.put_u64(limits[s]);
    b.finish(tail_bytes);
    ch.sock.write_vectored({{ch.sendbuf.data(), ch.sendbuf.size()},
                            {probe_block, tail_bytes}});
    ch.sendbuf.clear();
  }
  // Decode each shard's partials in its local indices, then merge them
  // exactly as the in-process corpus does.
  std::vector<std::vector<ScreenRow>> partials(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    const net::Frame frame =
        net::expect_frame(ch.sock, MsgType::kScreenResult);
    FrameCursor cur(frame.payload);
    const auto candidate = [&](std::uint64_t local) {
      if (local >= limits[s]) {
        throw net::WireProtocolError(
            "shard " + std::to_string(s) + " reported local row " +
            std::to_string(local) + " beyond its candidate limit " +
            std::to_string(limits[s]));
      }
      return static_cast<std::size_t>(local);
    };
    partials[s].resize(new_rows);
    for (ScreenRow& p : partials[s]) {
      const std::uint32_t flag_count = cur.get_u32("flag count");
      for (std::uint32_t f = 0; f < flag_count; ++f) {
        const std::uint64_t local = cur.get_u64("flagged local");
        const float sim = cur.get_f32("flagged similarity");
        p.flagged.push_back({candidate(local), sim});
      }
      if (cur.get_u8("has best") != 0) {
        const std::size_t local = candidate(cur.get_u64("best local"));
        p.best = ScreenMatch{local, cur.get_f32("best similarity")};
      }
      p.scanned = static_cast<std::size_t>(cur.get_u64("scanned"));
      p.rescored = static_cast<std::size_t>(cur.get_u64("rescored"));
    }
    cur.done("ScreenResult");
  }
  return core::merge_screen(partials, globals_);
}

std::vector<PairScore> DistCorpus::top_k(std::size_t i, std::size_t k) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(i < entries_.size(), "top_k: row index out of range");
  GNN4IP_ENSURE(live_[i] != 0, "top_k: row has been removed");
  const std::size_t d = dim_;
  const std::size_t shard_count = globals_.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kTopK);
    b.put_u32(static_cast<std::uint32_t>(d));
    b.put_u64(k);
    b.put_u64(globals_[s].size());
    b.put_u64(entries_[i].shard == s ? entries_[i].local : kNoLocal);
    b.put_bytes(rows_.data() + i * d, d * sizeof(float));
    b.finish();
    flush_locked(ch);
  }
  // Each shard returns its true top-min(k, ·) prefix; the global top-k
  // is a subset of their union, so the in-process merge reproduces the
  // in-process ranking exactly.
  std::vector<std::vector<ScreenMatch>> prefixes(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const net::Frame frame =
        net::expect_frame(shared_->channels[s].sock, MsgType::kTopKResult);
    FrameCursor cur(frame.payload);
    const std::uint32_t count = cur.get_u32("match count");
    for (std::uint32_t m = 0; m < count; ++m) {
      const std::uint64_t local = cur.get_u64("match local");
      const float sim = cur.get_f32("match similarity");
      if (local >= globals_[s].size()) {
        throw net::WireProtocolError("shard " + std::to_string(s) +
                                     " reported unknown local row " +
                                     std::to_string(local));
      }
      prefixes[s].push_back({static_cast<std::size_t>(local), sim});
    }
    cur.done("TopKResult");
  }
  return core::merge_top_k(prefixes, globals_, i, k);
}

void DistCorpus::save(const std::string& dir,
                      std::string_view model_fingerprint) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw core::SnapshotIoError("cannot create snapshot directory '" + dir +
                                "': " + ec.message());
  }
  const std::size_t shard_count = globals_.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kSaveShard);
    b.put_string(dir);
    b.put_u64(s);
    b.finish();
    flush_locked(ch);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const net::Frame frame =
        net::expect_frame(shared_->channels[s].sock, MsgType::kSaveAck);
    FrameCursor cur(frame.payload);
    const std::uint64_t rows = cur.get_u64("saved rows");
    const std::uint64_t live_rows = cur.get_u64("saved live rows");
    cur.done("SaveAck");
    if (rows != globals_[s].size() || live_rows != shard_live_[s]) {
      throw net::WireProtocolError(
          "shard " + std::to_string(s) + " saved " + std::to_string(rows) +
          " rows (" + std::to_string(live_rows) + " live) but the front end "
          "expected " + std::to_string(globals_[s].size()) + " (" +
          std::to_string(shard_live_[s]) + " live) — state has drifted");
    }
  }
  // The manifest comes from the mirror, through the same writer as
  // ShardedCorpus::save, so either implementation restores the other's
  // snapshots.
  core::CorpusManifest manifest{std::string(model_fingerprint), dim_,
                                shard_count, {}};
  manifest.order.reserve(entries_.size());
  for (const core::EntryRef& e : entries_) manifest.order.push_back(e.shard);
  core::write_manifest(root / core::kManifestFileName, manifest);
}

std::unique_ptr<core::CorpusBackend> DistCorpus::restored(
    const std::string& dir, std::string_view expected_fingerprint) const {
  // Parse + validate entirely in-process first: ShardedCorpus::restore
  // throws every typed SnapshotError before anything is pushed, and the
  // restored probe hands us validated rows, names, and tombstones (it
  // adopts the snapshot's own shard count, which is also what
  // `gnn4ip_shardd --load-shard` servers hold).
  core::ShardedCorpus probe(1, options_);
  probe.restore(dir, expected_fingerprint);

  auto fresh = std::unique_ptr<DistCorpus>(
      new DistCorpus(shared_, options_, fingerprint_));
  util::MutexLock lock(shared_->mu);
  const std::size_t shard_count = shared_->channels.size();
  fresh->dim_ = probe.dim();
  for (std::size_t g = 0; g < probe.size(); ++g) {
    const std::size_t mg =
        fresh->admit_mirror_locked(probe.name(g), probe.row(g));
    GNN4IP_ENSURE(mg == g, "DistCorpus: restore renumbered a global id");
    if (!probe.live(g)) {
      fresh->live_[g] = 0;
      --fresh->live_count_;
      fresh->first_removed_ = std::min(fresh->first_removed_, g);
      --fresh->shard_live_[fresh->entries_[g].shard];
    }
  }

  // Adopt without pushing when the cluster already holds this snapshot:
  // the shard count matches and every server's resident tallies equal
  // the mirror's. The operator contract (docs/ARCHITECTURE.md) is that
  // matching servers were started with --load-shard on THIS snapshot's
  // shard files; the tally check catches the honest mistakes (wrong
  // file, wrong order, stale snapshot), not a malicious server.
  bool adopt = probe.num_shards() == shard_count;
  std::vector<std::uint8_t> buf;
  if (adopt) {
    for (Channel& ch : shared_->channels) {
      flush_locked(ch);
      buf.clear();
      FrameBuilder b(buf, MsgType::kInfo);
      b.finish();
      ch.sock.write_all(buf.data(), buf.size());
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      const net::Frame frame =
          net::expect_frame(shared_->channels[s].sock, MsgType::kInfoAck);
      FrameCursor cur(frame.payload);
      const std::uint32_t sdim = cur.get_u32("shard dim");
      const std::uint64_t rows = cur.get_u64("shard rows");
      const std::uint64_t live_rows = cur.get_u64("shard live rows");
      cur.done("InfoAck");
      adopt = adopt && rows == fresh->globals_[s].size() &&
              live_rows == fresh->shard_live_[s] &&
              (rows == 0 || sdim == fresh->dim_);
    }
  }
  if (!adopt) {
    // Reset and re-push in global insertion order: AdmitRows frames
    // aggregate in the send buffers (threshold flushes), dead rows are
    // re-admitted then tombstoned so local indices line up with the
    // snapshot's.
    for (Channel& ch : shared_->channels) {
      FrameBuilder b(ch.sendbuf, MsgType::kReset);
      b.finish();
    }
    for (std::size_t g = 0; g < fresh->entries_.size(); ++g) {
      const core::EntryRef& e = fresh->entries_[g];
      Channel& ch = shared_->channels[e.shard];
      FrameBuilder b(ch.sendbuf, MsgType::kAdmitRows);
      b.put_u32(static_cast<std::uint32_t>(fresh->dim_));
      b.put_u32(1);
      b.put_string(fresh->names_[g]);
      b.put_bytes(fresh->rows_.data() + g * fresh->dim_,
                  fresh->dim_ * sizeof(float));
      b.finish();
      buffer_flush_locked(ch);
    }
    for (std::size_t g = 0; g < fresh->entries_.size(); ++g) {
      if (fresh->live_[g] != 0) continue;
      Channel& ch = shared_->channels[fresh->entries_[g].shard];
      FrameBuilder b(ch.sendbuf, MsgType::kRemove);
      b.put_u64(fresh->entries_[g].local);
      b.finish();
      buffer_flush_locked(ch);
    }
    // Cross-check the push landed exactly (and flush the tails).
    for (Channel& ch : shared_->channels) {
      FrameBuilder b(ch.sendbuf, MsgType::kInfo);
      b.finish();
      flush_locked(ch);
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      const net::Frame frame =
          net::expect_frame(shared_->channels[s].sock, MsgType::kInfoAck);
      FrameCursor cur(frame.payload);
      (void)cur.get_u32("shard dim");
      const std::uint64_t rows = cur.get_u64("shard rows");
      const std::uint64_t live_rows = cur.get_u64("shard live rows");
      cur.done("InfoAck");
      if (rows != fresh->globals_[s].size() ||
          live_rows != fresh->shard_live_[s]) {
        throw net::WireProtocolError(
            "shard " + std::to_string(s) + " holds " + std::to_string(rows) +
            " rows (" + std::to_string(live_rows) +
            " live) after the restore push; the mirror expects " +
            std::to_string(fresh->globals_[s].size()) + " (" +
            std::to_string(fresh->shard_live_[s]) + " live)");
      }
    }
  }
  return fresh;
}

void DistCorpus::fan_out(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  // Same worker resolution as ShardedCorpus: explicit num_threads > 1
  // spawns one lazily-created owned pool, 0 uses the shared pool, 1
  // runs inline.
  if (options_.num_threads > 1) {
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
  util::parallel_for(count, options_.num_threads, fn);
}

}  // namespace gnn4ip::dist
