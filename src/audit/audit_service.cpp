#include "audit/audit_service.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/snapshot_format.h"
#include "gnn/model_io.h"
#include "tensor/tape.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace gnn4ip::audit {

namespace {

/// Chase one report's indices through a compaction mapping (evicted
/// entries read kNoIndex, exactly the pre-refactor batch contract).
void remap_report(ScreenReport& report,
                  const std::vector<std::size_t>& mapping) {
  constexpr std::size_t kNone = core::ShardedCorpus::kNoIndex;
  if (report.submission.corpus_index != kNone) {
    report.submission.corpus_index = mapping[report.submission.corpus_index];
  }
  for (Verdict& v : report.verdicts) {
    if (v.corpus_index != kNone) v.corpus_index = mapping[v.corpus_index];
  }
  if (report.best && report.best->corpus_index != kNone) {
    report.best->corpus_index = mapping[report.best->corpus_index];
  }
}

/// Parsed service.txt (audit-layer snapshot state: the name index and
/// the pin set; the rows themselves live in the core shard files).
struct ServiceState {
  std::vector<std::pair<std::size_t, std::string>> entries;  // index, name
  std::vector<std::string> pins;
};

[[noreturn]] void bad_service(const std::string& detail) {
  throw core::SnapshotManifestError("malformed service state: " + detail);
}

/// "entry <index> <name>" / "pin <name>" — the name is the rest of the
/// line verbatim (spaces included), matching how save_corpus writes it.
std::string rest_of_line(const std::string& line, std::size_t from) {
  if (from >= line.size()) bad_service("missing name in '" + line + "'");
  return line.substr(from);
}

ServiceState read_service_state(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw core::SnapshotManifestError("missing service state file '" +
                                      path.string() +
                                      "' (not a service snapshot?)");
  }
  std::string line;
  if (!std::getline(is, line)) {
    throw core::SnapshotTruncatedError("service state '" + path.string() +
                                       "' is empty");
  }
  {
    std::istringstream ls(line);
    std::string magic;
    std::string version;
    ls >> magic >> version;
    if (magic != core::kServiceMagic) {
      throw core::SnapshotMagicError(
          "service state missing '" + std::string(core::kServiceMagic) +
          "' magic header (got '" + line + "')");
    }
    const std::string expected =
        "v" + std::to_string(core::kServiceFormatVersion);
    if (version != expected) {
      throw core::SnapshotVersionError(
          "unsupported service state version '" + version +
          "'; this build reads " + expected);
    }
  }
  ServiceState state;
  std::size_t resident = 0;
  if (!std::getline(is, line)) {
    throw core::SnapshotTruncatedError("service state: missing resident count");
  }
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> resident) || tag != "resident") {
      bad_service("bad resident line '" + line + "'");
    }
  }
  state.entries.reserve(resident);
  for (std::size_t i = 0; i < resident; ++i) {
    if (!std::getline(is, line)) {
      throw core::SnapshotTruncatedError(
          "service state: truncated resident entries (" + std::to_string(i) +
          " of " + std::to_string(resident) + ")");
    }
    std::istringstream ls(line);
    std::string tag;
    std::size_t index = 0;
    if (!(ls >> tag >> index) || tag != "entry") {
      bad_service("bad entry line '" + line + "'");
    }
    // Name starts one space past the index token.
    const std::size_t after_index = line.find(' ', line.find(' ', 0) + 1);
    if (after_index == std::string::npos) {
      bad_service("missing name in '" + line + "'");
    }
    state.entries.emplace_back(index, rest_of_line(line, after_index + 1));
  }
  std::size_t pin_count = 0;
  if (!std::getline(is, line)) {
    throw core::SnapshotTruncatedError("service state: missing pin count");
  }
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> pin_count) || tag != "pins") {
      bad_service("bad pins line '" + line + "'");
    }
  }
  state.pins.reserve(pin_count);
  for (std::size_t i = 0; i < pin_count; ++i) {
    if (!std::getline(is, line)) {
      throw core::SnapshotTruncatedError(
          "service state: truncated pin entries (" + std::to_string(i) +
          " of " + std::to_string(pin_count) + ")");
    }
    if (line.rfind("pin ", 0) != 0) bad_service("bad pin line '" + line + "'");
    state.pins.push_back(rest_of_line(line, 4));
  }
  if (!std::getline(is, line) || line != "end") {
    throw core::SnapshotTruncatedError(
        "service state: missing 'end' sentinel (truncated file?)");
  }
  if (std::getline(is, line)) {
    bad_service("trailing data after 'end' sentinel");
  }
  return state;
}

}  // namespace

AuditService::AuditService(gnn::Hw2Vec model, const AuditOptions& options)
    : AuditService(std::move(model), options,
                   std::make_unique<core::ShardedCorpus>(
                       options.num_shards, options.scorer,
                       options.shard_budget)) {}

AuditService::AuditService(gnn::Hw2Vec model, const AuditOptions& options,
                           std::unique_ptr<core::CorpusBackend> corpus)
    : options_(options),
      model_(std::move(model)),
      model_fingerprint_(gnn::model_fingerprint(model_)),
      pipeline_(options.pipeline),
      corpus_(std::move(corpus)),
      queue_(options.queue_capacity) {
  GNN4IP_ENSURE(corpus_ != nullptr,
                "AuditService: corpus backend must be non-null");
  // The backend is the truth for the shard layout; keep the options in
  // sync so callers introspect it consistently.
  options_.num_shards = corpus_->num_shards();
}

AuditService AuditService::from_model_file(const std::string& path,
                                           const AuditOptions& options) {
  return AuditService(gnn::load_model_file(path), options);
}

std::size_t AuditService::reserve_tickets(std::size_t n) {
  util::MutexLock lock(commit_mu_);
  const std::size_t first = tickets_issued_;
  tickets_issued_ += n;
  return first;
}

void AuditService::commit_begin(std::size_t ticket) {
  util::MutexLock lock(commit_mu_);
  while (next_commit_ != ticket) commit_cv_.wait(commit_mu_);
}

void AuditService::commit_end() {
  {
    util::MutexLock lock(commit_mu_);
    ++next_commit_;
  }
  commit_cv_.notify_all();
}

void AuditService::forget_evictable(std::size_t index) {
  const auto it = std::lower_bound(evictable_.begin(), evictable_.end(), index);
  if (it != evictable_.end() && *it == index) evictable_.erase(it);
}

void AuditService::drop(std::size_t index) {
  corpus_->remove(index);
  forget_evictable(index);
  index_by_name_.erase(corpus_->name(index));
}

std::size_t AuditService::admit(const std::string& name,
                                const tensor::Matrix& embedding) {
  // Resubmission replaces the resident row; the pin (if any) follows
  // the name onto the fresh row.
  const auto it = index_by_name_.find(name);
  if (it != index_by_name_.end()) drop(it->second);
  const std::size_t index = corpus_->add(name, embedding);
  index_by_name_[name] = index;
  // The newest row has the largest index, so appending keeps
  // evictable_ ascending.
  if (pinned_.count(name) == 0) evictable_.push_back(index);
  return index;
}

std::vector<std::size_t> AuditService::enforce_capacity_and_compact() {
  // The victim is the oldest live unpinned row: the front of evictable_.
  if (options_.max_resident > 0) {
    while (corpus_->live_count() > options_.max_resident &&
           !evictable_.empty()) {
      drop(evictable_.front());
    }
  }
  // Per-shard budgets, enforced in the same order and with the same
  // pinning rules but restricted to rows placed in the over-budget
  // shard: one hot shard (hash skew, adversarial names) cannot crowd
  // out the rest of the resident cache. A shard holding only pinned
  // library IP stays over budget.
  if (corpus_->shard_budget() > 0) {
    for (std::size_t s = 0; s < corpus_->num_shards(); ++s) {
      std::size_t pos = 0;  // evictable_[pos, ...) not yet ruled out
      while (corpus_->shard_live_count(s) > corpus_->shard_budget()) {
        while (pos < evictable_.size() &&
               corpus_->shard_of(evictable_[pos]) != s) {
          ++pos;
        }
        if (pos == evictable_.size()) break;
        drop(evictable_[pos]);
      }
    }
  }
  // No tombstones (nothing evicted or replaced): indices are already
  // final, so skip the compaction pass and the name-index rewrite —
  // this keeps building a large pinned library O(N), not O(N²). An
  // empty mapping means identity to the callers.
  if (corpus_->live_count() == corpus_->size()) return {};
  const std::vector<std::size_t> mapping = corpus_->compact();
  // Rows below the first moved index keep theirs. That index comes from
  // the mapping, not from this commit's removals: a restored snapshot
  // may carry older tombstones. The mapping is identity on a prefix and
  // moves or drops every row after it, so a binary search finds the
  // boundary.
  std::size_t first = 0;
  for (std::size_t hi = mapping.size(); first < hi;) {
    const std::size_t mid = first + (hi - first) / 2;
    if (mapping[mid] == mid) {
      first = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::size_t live = corpus_->size();
  for (std::size_t j = first; j < live; ++j) {
    const auto entry = index_by_name_.find(corpus_->name(j));
    GNN4IP_ENSURE(entry != index_by_name_.end(),
                  "AuditService: live entry lost in compaction");
    entry->second = j;
  }
  GNN4IP_ENSURE(index_by_name_.size() == live,
                "AuditService: name index out of step with the corpus");
  for (auto it = std::lower_bound(evictable_.begin(), evictable_.end(), first);
       it != evictable_.end(); ++it) {
    *it = mapping[*it];
  }
  return mapping;
}

Submission AuditService::add_library(std::string name,
                                     const std::string& verilog_source) {
  const CompileResult compiled = pipeline_.compile(verilog_source);
  if (!compiled.ok) {
    Submission s;
    s.name = std::move(name);
    s.error = compiled.error;
    return s;
  }
  return add_library(std::move(name), compiled.design.tensors);
}

Submission AuditService::add_library(std::string name,
                                     gnn::GraphTensors tensors) {
  Submission s;
  s.name = std::move(name);
  tensor::Tape tape;
  const tensor::Matrix embedding = model_.embed_inference(tape, tensors);
  // One admission ticket: the pinned row lands between two screening
  // commits, never mid-commit, so add_library is safe while consumers
  // stream.
  const std::size_t ticket = reserve_tickets(1);
  commit_begin(ticket);
  try {
    util::WriterLock state(state_mu_);
    const std::size_t row = admit(s.name, embedding);
    if (pinned_.insert(s.name).second) forget_evictable(row);
    s.accepted = true;
    const std::vector<std::size_t> mapping = enforce_capacity_and_compact();
    s.corpus_index = mapping.empty() ? row : mapping[row];
  } catch (...) {
    commit_end();
    throw;
  }
  commit_end();
  return s;
}

Submission AuditService::add_library(const train::GraphEntry& entry) {
  return add_library(entry.name, entry.tensors);
}

bool AuditService::submit(std::string name, std::string verilog_source) {
  AuditItem item;
  item.name = std::move(name);
  item.source = std::move(verilog_source);
  item.from_source = true;
  return queue_.try_push(std::move(item));
}

bool AuditService::submit(std::string name, gnn::GraphTensors tensors) {
  AuditItem item;
  item.name = std::move(name);
  item.tensors = std::move(tensors);
  return queue_.try_push(std::move(item));
}

bool AuditService::submit(const train::GraphEntry& entry) {
  return submit(entry.name, entry.tensors);
}

std::vector<ScreenReport> AuditService::screen() {
  std::vector<AuditItem> batch;
  std::size_t first_ticket = 0;
  {
    // Drain and reserve atomically: two sync callers racing here could
    // otherwise dequeue in one order and ticket in the other.
    util::MutexLock lock(sync_mu_);
    batch = queue_.drain();
    first_ticket = reserve_tickets(batch.size());
  }
  if (batch.empty()) return {};
  return screen_batch(std::move(batch), first_ticket, nullptr);
}

void AuditService::commit_one(const std::string& name,
                              const tensor::Matrix& embedding,
                              ScreenReport& report,
                              std::vector<ScreenReport>* prior,
                              std::size_t prior_count) {
  util::WriterLock state(state_mu_);
  const std::size_t row = admit(name, embedding);
  const std::size_t n = corpus_->size();  // row == n - 1
  // Screen this one submission against everything admitted under an
  // earlier ticket. screen_new_rows returns exactly what the verdicts
  // need — the flagged matches and the best live match, with exact
  // cosine_cell similarities. A same-name row replaced by admit() above
  // is a tombstone here, excluded like any other tombstone.
  if (n > 1) {
    std::vector<core::ScreenRow> screened =
        corpus_->screen_new_rows(n - 1, options_.scorer.delta);
    core::ScreenRow& srow = screened.front();
    // Verdict order: descending similarity, ascending corpus index on
    // ties — a total order, sorted on the small matches before any
    // verdict (and its name string) exists.
    std::sort(srow.flagged.begin(), srow.flagged.end(),
              [](const core::ScreenMatch& x, const core::ScreenMatch& y) {
                if (x.similarity != y.similarity) {
                  return x.similarity > y.similarity;
                }
                return x.index < y.index;
              });
    report.verdicts.reserve(srow.flagged.size());
    for (const core::ScreenMatch& m : srow.flagged) {
      report.verdicts.push_back(
          Verdict{corpus_->name(m.index), m.index, m.similarity, true});
    }
    if (srow.best) {
      report.best = Verdict{corpus_->name(srow.best->index), srow.best->index,
                            srow.best->similarity,
                            srow.best->similarity > options_.scorer.delta};
    }
  }
  report.submission.accepted = true;
  report.submission.corpus_index = row;
  const std::vector<std::size_t> mapping = enforce_capacity_and_compact();
  if (!mapping.empty()) {
    remap_report(report, mapping);
    // Single-consumer screen() keeps its finished reports current
    // through later batch-mates' compactions, so a caller sees indices
    // valid at the end of the call (evicted ⇒ kNoIndex) — the original
    // batch contract.
    if (prior != nullptr) {
      for (std::size_t p = 0; p < prior_count; ++p) {
        remap_report((*prior)[p], mapping);
      }
    }
  }
}

std::vector<ScreenReport> AuditService::screen_batch(
    std::vector<AuditItem> batch, std::size_t first_ticket,
    const CommitCallback& on_commit) {
  std::vector<ScreenReport> reports(batch.size());
  if (batch.empty()) return reports;

  // Every reserved ticket MUST commit exactly once or the turnstile
  // stalls all consumers; on any exception the remaining tickets are
  // advanced as no-ops before rethrowing.
  std::size_t committed = 0;
  try {
    // Phase 1 — compile + featurize + embed, one slot per design, on
    // this call's own scratch state: designs are independent, each
    // worker writes only its own slot, and the per-worker tape is reset
    // per graph — embeddings (hence every score below) are
    // bit-identical for any worker count. This phase takes no locks and
    // no tickets, so K consumers embed disjoint batches fully in
    // parallel. A malformed design lands a Diagnostic in its own report
    // and never touches its batch-mates.
    std::vector<tensor::Matrix> embeddings(batch.size());
    corpus_->fan_out(batch.size(), [&](std::size_t i) {
      static thread_local tensor::Tape tape;
      AuditItem& item = batch[i];
      reports[i].submission.name = item.name;
      if (item.from_source) {
        CompileResult compiled = pipeline_.compile(item.source);
        if (!compiled.ok) {
          reports[i].submission.error = std::move(compiled.error);
          return;
        }
        item.tensors = std::move(compiled.design.tensors);
      }
      embeddings[i] = model_.embed_inference(tape, item.tensors);
      // Deferred to the commit slot: accepted is the "admitted" flag,
      // and admission happens under the ticket.
    });

    // Phase 2 — commit each item under its ticket. The turnstile
    // serializes commits across every consumer in global ticket order,
    // so each submission scores against exactly the corpus a sequential
    // single-consumer run would have at that point. Rejected items
    // consume their ticket as a no-op so the order never stalls.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      commit_begin(first_ticket + i);
      try {
        const bool embedded = !embeddings[i].empty();
        if (embedded) {
          commit_one(batch[i].name, embeddings[i], reports[i],
                     on_commit ? nullptr : &reports, i);
        }
        // Hand off inside the commit slot: on_commit invocations are
        // mutually exclusive across consumers and arrive in ticket
        // order — the serialized-callback contract AsyncAuditor
        // re-exports as on_report.
        if (on_commit) on_commit(i, std::move(reports[i]));
      } catch (...) {
        commit_end();
        ++committed;
        throw;
      }
      commit_end();
      ++committed;
    }
  } catch (...) {
    for (std::size_t i = committed; i < batch.size(); ++i) {
      commit_begin(first_ticket + i);
      commit_end();
    }
    throw;
  }
  return reports;
}

std::vector<Verdict> AuditService::top_k(const std::string& name,
                                         std::size_t k) const {
  // Shared state lock for the whole read: commits (which may compact
  // and renumber) wait, concurrent readers overlap, so the index stays
  // valid across the corpus scan below.
  util::ReaderLock state(state_mu_);
  const auto it = index_by_name_.find(name);
  GNN4IP_ENSURE(it != index_by_name_.end(),
                "AuditService::top_k: '" + name + "' is not resident");
  std::vector<Verdict> result;
  for (const core::PairScore& p : corpus_->top_k(it->second, k)) {
    Verdict v;
    v.matched = corpus_->name(p.b);
    v.corpus_index = p.b;
    v.similarity = p.similarity;
    v.flagged = p.similarity > options_.scorer.delta;
    result.push_back(std::move(v));
  }
  return result;
}

void AuditService::save_corpus(const std::string& dir) {
  // One serialized commit: the turnstile guarantees every earlier
  // ticket's admission is fully in the snapshot and every later one is
  // fully absent.
  const std::size_t ticket = reserve_tickets(1);
  commit_begin(ticket);
  try {
    util::ReaderLock state(state_mu_);
    // The v1 service file is line-oriented; a name holding a newline
    // cannot round-trip, so refuse to write a snapshot that a later
    // load_corpus would misparse.
    // lint:allow(unordered-iter): pure validation scan; order-free.
    for (const auto& [nm, idx] : index_by_name_) {
      if (nm.find('\n') != std::string::npos) {
        throw core::SnapshotIoError(
            "resident name contains a newline; not representable in the "
            "v1 service state file");
      }
    }
    corpus_->save(dir, model_fingerprint_);
    std::vector<std::pair<std::size_t, std::string>> entries;
    entries.reserve(index_by_name_.size());
    // lint:allow(unordered-iter): entries are sorted before writing.
    for (const auto& [nm, idx] : index_by_name_) entries.emplace_back(idx, nm);
    std::sort(entries.begin(), entries.end());
    std::vector<std::string> sorted_pins(pinned_.begin(), pinned_.end());
    std::sort(sorted_pins.begin(), sorted_pins.end());
    const std::filesystem::path path =
        std::filesystem::path(dir) / core::kServiceFileName;
    std::ofstream os(path);
    if (!os) {
      throw core::SnapshotIoError("cannot open '" + path.string() +
                                  "' for writing");
    }
    os << core::kServiceMagic << " v" << core::kServiceFormatVersion << '\n';
    os << "resident " << entries.size() << '\n';
    for (const auto& [idx, nm] : entries) {
      os << "entry " << idx << ' ' << nm << '\n';
    }
    os << "pins " << sorted_pins.size() << '\n';
    for (const std::string& p : sorted_pins) os << "pin " << p << '\n';
    os << "end\n";
    os.flush();
    if (!os) {
      throw core::SnapshotIoError("write to '" + path.string() + "' failed");
    }
  } catch (...) {
    commit_end();
    throw;
  }
  commit_end();
}

void AuditService::load_corpus(const std::string& dir) {
  const std::size_t ticket = reserve_tickets(1);
  commit_begin(ticket);
  try {
    // Strong guarantee: parse and validate everything into locals; the
    // service's own state is only touched in the no-throw swap below.
    ServiceState persisted = read_service_state(
        std::filesystem::path(dir) / core::kServiceFileName);
    std::unique_ptr<core::CorpusBackend> fresh =
        corpus_->restored(dir, model_fingerprint_);
    // Cross-validate the service file against the restored corpus: the
    // name index must be a bijection onto the live rows.
    if (persisted.entries.size() != fresh->live_count()) {
      throw core::SnapshotManifestError(
          "service state lists " + std::to_string(persisted.entries.size()) +
          " resident entries but the corpus snapshot holds " +
          std::to_string(fresh->live_count()) + " live rows");
    }
    std::unordered_map<std::string, std::size_t> index;
    index.reserve(persisted.entries.size());
    for (const auto& [idx, nm] : persisted.entries) {
      if (idx >= fresh->size() || !fresh->live(idx)) {
        throw core::SnapshotManifestError(
            "service state entry '" + nm + "' points at index " +
            std::to_string(idx) + ", which is not a live corpus row");
      }
      if (fresh->name(idx) != nm) {
        throw core::SnapshotManifestError(
            "service state names index " + std::to_string(idx) + " '" + nm +
            "' but the corpus row is named '" + fresh->name(idx) + "'");
      }
      if (!index.emplace(nm, idx).second) {
        throw core::SnapshotManifestError(
            "service state lists resident name '" + nm + "' twice");
      }
    }
    std::unordered_set<std::string> pins;
    pins.reserve(persisted.pins.size());
    for (const std::string& p : persisted.pins) {
      if (index.count(p) == 0) {
        throw core::SnapshotManifestError("service state pins '" + p +
                                          "', which is not resident");
      }
      pins.insert(p);
    }
    // Eviction order: the unpinned residents by ascending global index.
    // In a snapshot, index order IS admission order (admits append,
    // replacements re-append, compaction preserves relative order), so
    // evictions after a warm restart pick the victims a never-restarted
    // service would.
    std::sort(persisted.entries.begin(), persisted.entries.end());
    std::vector<std::size_t> evictable;
    for (const auto& [idx, nm] : persisted.entries) {
      if (pins.count(nm) == 0) evictable.push_back(idx);
    }
    util::WriterLock state(state_mu_);
    corpus_ = std::move(fresh);
    index_by_name_ = std::move(index);
    pinned_ = std::move(pins);
    evictable_ = std::move(evictable);
    // The restored corpus adopts the snapshot's shard count; keep the
    // options in sync so callers introspect the truth.
    options_.num_shards = corpus_->num_shards();
  } catch (...) {
    commit_end();
    throw;
  }
  commit_end();
}

void AuditService::pin(const std::string& name) {
  util::WriterLock state(state_mu_);
  const auto it = index_by_name_.find(name);
  GNN4IP_ENSURE(it != index_by_name_.end(),
                "AuditService::pin: '" + name + "' is not resident");
  if (pinned_.insert(name).second) forget_evictable(it->second);
}

void AuditService::unpin(const std::string& name) {
  util::WriterLock state(state_mu_);
  if (pinned_.erase(name) == 0) return;
  const auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) return;
  evictable_.insert(
      std::lower_bound(evictable_.begin(), evictable_.end(), it->second),
      it->second);
}

bool AuditService::pinned(const std::string& name) const {
  util::ReaderLock state(state_mu_);
  return pinned_.count(name) != 0;
}

bool AuditService::contains(const std::string& name) const {
  util::ReaderLock state(state_mu_);
  return index_by_name_.count(name) != 0;
}

std::size_t AuditService::index_of(const std::string& name) const {
  util::ReaderLock state(state_mu_);
  const auto it = index_by_name_.find(name);
  return it == index_by_name_.end() ? core::ShardedCorpus::kNoIndex
                                    : it->second;
}

}  // namespace gnn4ip::audit
