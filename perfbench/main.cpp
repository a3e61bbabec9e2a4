// verdict_bench — the RTL-to-verdict benchmark (see README.md).
//
//   verdict_bench train <rtl|netlist> <model-path>
//       Train a detector from a fixed seed and write <model-path> plus
//       <model-path>.delta (the tuned decision boundary δ, hex float).
//   verdict_bench run --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --model <model-path>
//                     [--spans <path>] [--smoke]
//       One closed-loop client, one submission in flight: submit, then
//       screen, on one screening thread. Prints a provenance line, the
//       verdict-stream digest, and, as the last line, the result JSON.
//       Timings are reported at a reference host speed (HostSpeed).
//
// Exit codes: 0 result printed; 1 a verdict check failed (digest or
// replay mismatch — no numbers are printed); 2 usage; 3 the build is not
// fit for timing; 4 any other error.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "data/corpus.h"
#include "dist/dist_corpus.h"
#include "dist/shard_server.h"
#include "gnn/model_io.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace audit = gnn4ip::audit;
namespace core = gnn4ip::core;
namespace dist = gnn4ip::dist;
namespace gnn = gnn4ip::gnn;

constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnfitBuild = 3;
constexpr int kExitError = 4;

/// Shard servers behind the remote corpus (and behind the traced run's
/// dist mirror).
constexpr std::size_t kServers = 2;

/// A verdict check failed: the run must not print numbers.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------- build

// GCC and clang announce ASan/TSan builds (UBSan rides with ASan in the
// repository's sanitizer build); -DGNN4IP_LOCK_ORDER=1 arms the validator.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
constexpr const char* kSanitizer = "on";
#else
constexpr const char* kSanitizer = "none";
#endif
#ifdef GNN4IP_LOCK_ORDER
constexpr bool kLockOrder = true;
#else
constexpr bool kLockOrder = false;
#endif
#ifdef NDEBUG
constexpr bool kAssertionsOff = true;
#else
constexpr bool kAssertionsOff = false;
#endif
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// Why this build must not be timed; empty when it may.
std::string unfit_build_reason() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  if (!kAssertionsOff) return "assertions are on (NDEBUG undefined)";
  if (std::strcmp(kSanitizer, "none") != 0) return "sanitizer build";
  if (kLockOrder) return "the lock-order validator is on";
  return {};
}

// --------------------------------------------------------------- models

std::string hex_float(float v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", static_cast<double>(v));
  return buf;
}

int train(const std::string& corpus, const std::string& path) {
  std::vector<gnn4ip::train::GraphEntry> entries;
  gnn4ip::train::TrainConfig tc;
  tc.learning_rate = 3e-3F;
  if (corpus == "rtl") {
    gnn4ip::data::RtlCorpusOptions options;
    options.instances_per_family = 8;
    entries = gnn4ip::make_graph_entries(gnn4ip::data::build_rtl_corpus(options));
    tc.epochs = 60;
  } else if (corpus == "netlist") {
    gnn4ip::data::NetlistCorpusOptions options;
    options.instances_per_family = 6;
    options.iscas_obfuscated_per_benchmark = 5;
    entries =
        gnn4ip::make_graph_entries(gnn4ip::data::build_netlist_corpus(options));
    // The c499/c1355 twins need the longer schedule (bench/table3).
    tc.epochs = 120;
  } else {
    std::fprintf(stderr, "train: unknown corpus '%s'\n", corpus.c_str());
    return kExitUsage;
  }
  gnn4ip::DetectorConfig config;
  config.model.seed = 5;
  gnn4ip::PiracyDetector detector(config);
  const gnn4ip::train::EvalResult eval =
      detector.train_on(std::move(entries), tc);
  std::fprintf(stderr, "trained %s model: held-out accuracy %.4f, delta %+.4f\n",
               corpus.c_str(), eval.confusion.accuracy(),
               static_cast<double>(detector.delta()));
  // Write both files under temporary names, then rename: a run never
  // sees half a model.
  detector.save(path + ".tmp");
  {
    std::ofstream os(path + ".delta.tmp");
    os << hex_float(detector.delta()) << '\n';
    if (!os.flush()) throw std::runtime_error("cannot write " + path + ".delta");
  }
  std::filesystem::rename(path + ".delta.tmp", path + ".delta");
  std::filesystem::rename(path + ".tmp", path);
  return 0;
}

float read_delta(const std::string& model_path) {
  std::ifstream is(model_path + ".delta");
  std::string text;
  if (!(is >> text)) {
    throw std::runtime_error("missing decision boundary " + model_path +
                             ".delta");
  }
  return std::strtof(text.c_str(), nullptr);
}

// -------------------------------------------------------------- cluster

/// In-process shard servers on loopback TCP, as in BM_RemoteScreen: one
/// serving thread each. Stopped and joined on destruction; callers hang
/// up (destroy their DistCorpus) first.
class Cluster {
 public:
  explicit Cluster(std::size_t servers) {
    dist::ShardServerOptions options;
    options.poll_ms = 5;
    for (std::size_t s = 0; s < servers; ++s) {
      servers_.push_back(std::make_unique<dist::ShardServer>(0, options));
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
    }
    errors_.resize(servers);
    for (std::size_t s = 0; s < servers; ++s) {
      threads_.emplace_back([this, s] {
        try {
          servers_[s]->serve();
        } catch (const std::exception& e) {
          errors_[s] = e.what();
        }
      });
    }
  }
  ~Cluster() {
    for (const auto& server : servers_) server->stop();
    for (std::thread& t : threads_) t.join();
    for (const std::string& e : errors_) {
      if (!e.empty()) std::fprintf(stderr, "shard server failed: %s\n", e.c_str());
    }
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  Cluster(Cluster&&) = delete;
  Cluster& operator=(Cluster&&) = delete;

  [[nodiscard]] const std::vector<dist::Endpoint>& endpoints() const {
    return endpoints_;
  }

 private:
  std::vector<std::unique_ptr<dist::ShardServer>> servers_;
  std::vector<dist::Endpoint> endpoints_;
  std::vector<std::string> errors_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

// -------------------------------------------------------------- service

/// Production defaults, except one scoring thread (nothing to split with
/// one submission in flight on one shard) and max_resident equal to the
/// pinned library, so each submission is screened against the library
/// alone and evicted at its own commit.
audit::AuditOptions service_options(const Workload& wl, float delta) {
  audit::AuditOptions options;
  options.scorer.num_threads = 1;
  options.scorer.delta = delta;
  options.max_resident = wl.library().size();
  return options;
}

/// The service plus, for remote_10k, the servers its corpus lives in.
/// Declaration order makes the service hang up before the servers stop.
struct Stack {
  void clear() {
    service.reset();
    cluster.reset();
  }

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<audit::AuditService> service;
};

/// Stand one service up: load the model and pin the library from Verilog
/// text, with its corpus in shard servers when `remote`. The servers
/// start before the clock; everything the service itself does is setup.
/// Returns the setup seconds.
double build_stack(Stack& stack, const Workload& wl,
                   const std::string& model_path, float delta, bool remote,
                   Tracer* tracer) {
  stack.clear();
  if (remote) stack.cluster = std::make_unique<Cluster>(kServers);
  const std::int64_t t0 = wall_ns();
  gnn::Hw2Vec model = gnn::load_model_file(model_path);
  const audit::AuditOptions options = service_options(wl, delta);
  if (remote) {
    auto corpus = dist::DistCorpus::connect(stack.cluster->endpoints(),
                                            gnn::model_fingerprint(model),
                                            options.scorer);
    stack.service = std::make_unique<audit::AuditService>(
        std::move(model), options, std::move(corpus));
  } else {
    stack.service =
        std::make_unique<audit::AuditService>(std::move(model), options);
  }
  for (std::size_t i = 0; i < wl.library().size(); ++i) {
    const Design& d = wl.library()[i];
    const std::int32_t span =
        tracer != nullptr ? tracer->begin(Layer::kAddLibrary, i) : -1;
    const audit::Submission s = stack.service->add_library(d.name, d.source);
    if (tracer != nullptr) tracer->end(span);
    if (!s.accepted) {
      throw std::runtime_error("library design " + d.name +
                               " rejected: " + s.error.to_string());
    }
  }
  return static_cast<double>(wall_ns() - t0) * 1e-9;
}

audit::ScreenReport audit_one(audit::AuditService& service, Design& d) {
  if (!service.submit(d.name, std::move(d.source))) {
    throw std::runtime_error("submission queue refused " + d.name);
  }
  std::vector<audit::ScreenReport> reports = service.screen();
  if (reports.size() != 1) {
    throw std::runtime_error("screen() returned " +
                             std::to_string(reports.size()) + " reports");
  }
  return std::move(reports.front());
}

// --------------------------------------------------------------- checks

/// FNV-1a over every verdict of the stream prefix: names, similarity
/// bits, flags, and the diagnostics of rejected submissions.
class Digest {
 public:
  void add(const audit::ScreenReport& r) {
    bytes(r.submission.name);
    byte(r.submission.accepted ? 1 : 0);
    if (!r.submission.accepted) bytes(r.submission.error.message);
    for (const audit::Verdict& v : r.verdicts) verdict(v);
    byte(r.best ? 1 : 0);
    if (r.best) verdict(*r.best);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
  void verdict(const audit::Verdict& v) {
    bytes(v.matched);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v.similarity, sizeof bits);
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(bits >> (8 * i)));
    byte(v.flagged ? 1 : 0);
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Detection quality and report kinds over the timed submissions.
struct Tally {
  std::size_t attempted = 0;
  std::size_t expected_kind = 0;  // verdict for valid, Diagnostic for truncated
  std::size_t judged = 0;
  std::size_t correct = 0;
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;

  /// Returns false when the report is not of the expected kind.
  bool add(const Workload& wl, const Design& d, const audit::ScreenReport& r) {
    ++attempted;
    const bool ok_kind = d.truncated ? (!r.submission.accepted &&
                                        !r.submission.error.message.empty())
                                     : r.submission.accepted;
    if (!ok_kind) return false;
    ++expected_kind;
    if (d.truncated) return true;
    ++judged;
    const std::size_t pinned = wl.library_count(d.family);
    std::size_t same = 0;
    for (const audit::Verdict& v : r.verdicts) {
      if (wl.family_of(v.matched) == d.family) ++same;
    }
    tp += same;
    fp += r.verdicts.size() - same;
    fn += pinned - same;
    bool right = false;
    if (wl.own_original_rule()) {
      right = r.best && wl.family_of(r.best->matched) == d.family;
    } else if (pinned > 0) {
      right = !r.verdicts.empty() &&
              wl.family_of(r.verdicts.front().matched) == d.family;
    } else {
      right = r.verdicts.empty();
    }
    if (right) ++correct;
    return true;
  }

  [[nodiscard]] double f1() const {
    const double denom = static_cast<double>(2 * tp + fp + fn);
    return denom > 0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
  }
};

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Does a mirror's screen of one commit reproduce the service's report
/// exactly (matched names, similarity bits, best match)?
void check_replay(const audit::ScreenReport& r, const core::ScreenRow& row,
                  const core::CorpusBackend& mirror, const char* which) {
  std::vector<core::ScreenMatch> flagged = row.flagged;
  std::sort(flagged.begin(), flagged.end(),
            [](const core::ScreenMatch& x, const core::ScreenMatch& y) {
              if (x.similarity != y.similarity) return x.similarity > y.similarity;
              return x.index < y.index;
            });
  bool same = flagged.size() == r.verdicts.size() &&
              row.best.has_value() == r.best.has_value();
  for (std::size_t i = 0; same && i < flagged.size(); ++i) {
    same = mirror.name(flagged[i].index) == r.verdicts[i].matched &&
           same_bits(flagged[i].similarity, r.verdicts[i].similarity);
  }
  if (same && row.best) {
    same = mirror.name(row.best->index) == r.best->matched &&
           same_bits(row.best->similarity, r.best->similarity);
  }
  if (!same) {
    throw Mismatch(std::string("replay on the ") + which +
                   " mirror does not reproduce the verdicts of " +
                   r.submission.name);
  }
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
       << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending sample.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Reset the peak-RSS mark to the current RSS, so input generation before
/// the service phase does not set the peak.
void reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5";
  if (!os.flush()) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ----------------------------------------------------------- host speed

/// The host's speed, read from a fixed kernel that calls nothing in the
/// library: sorting a copy of 64Ki pseudo-random 32-bit keys (256 KiB;
/// branchy and cache-bound, like an audit). On a shared VM one vCPU's
/// speed swings by a quarter over minutes while the work of an audit
/// stays the same, and the kernel slows by the same factor (README,
/// Steadiness). Every timing is therefore reported at a reference speed:
/// multiplied by scale(), the reference kernel time over the kernel's
/// median time in the timed phase.
class HostSpeed {
 public:
  /// The kernel's time on the reference host: about the speed of a
  /// 4-vCPU Intel Xeon VM in its calm phases.
  static constexpr double kReferenceNs = 4.0e6;
  /// Samples are at least this far apart (about 2% of the time).
  static constexpr std::int64_t kIntervalNs = 200'000'000;

  HostSpeed() : keys_(std::size_t{1} << 16), scratch_(keys_.size()) {
    std::uint64_t x = 0x5ca1ab1eULL;
    for (std::uint32_t& key : keys_) {
      x += 0x9E3779B97F4A7C15ULL;  // splitmix64
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      key = static_cast<std::uint32_t>(z ^ (z >> 31));
    }
  }

  /// Time the kernel once when the last sample is kIntervalNs old.
  void sample_if_due() {
    const std::int64_t t0 = wall_ns();
    if (!ns_.empty() && t0 - last_ns_ < kIntervalNs) return;
    std::copy(keys_.begin(), keys_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    last_ns_ = wall_ns();
    ns_.push_back(static_cast<double>(last_ns_ - t0));
    // Reading the result keeps the optimizer from dropping the sort.
    if (scratch_.front() > scratch_.back()) throw std::logic_error("unsorted keys");
  }

  [[nodiscard]] std::size_t samples() const { return ns_.size(); }
  [[nodiscard]] double median_ms() const { return median(ns_) * 1e-6; }
  [[nodiscard]] double scale() const { return kReferenceNs / median(ns_); }

 private:
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> scratch_;
  std::vector<double> ns_;
  std::int64_t last_ns_ = 0;
};

// ------------------------------------------------------------------ run

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string model;
  std::string spans;
};

/// The stream prefix every run of a workload covers, whatever its speed:
/// its digest is comparable across runs of one seed.
std::size_t digest_count(const Workload& wl) {
  return std::max<std::size_t>(2 * wl.cycle(), 64);
}

/// The closed loop over whole rounds of the traffic mix, so every run
/// times the same composition. Each round's inputs are generated before
/// any of its audits. Rounds warm up until a tenth of the budget (at most
/// one second) has passed, then are timed until `seconds` of work; the
/// stream always covers the digest prefix. Between timed rounds `speed`
/// samples the host. `step(k, design, timed)` audits submission k and
/// returns the nanoseconds it spent.
template <typename Step>
void drive(const Workload& wl, double seconds, HostSpeed& speed, Step&& step) {
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t warmup_ns = std::min<std::int64_t>(budget_ns / 10, 1'000'000'000);
  const std::size_t prefix = digest_count(wl);
  std::int64_t warm_ns = 0;
  std::int64_t busy_ns = 0;
  std::vector<Design> round;
  for (std::size_t k = 0; busy_ns < budget_ns || k < prefix; k += wl.cycle()) {
    const bool timed = warm_ns >= warmup_ns;
    if (timed) speed.sample_if_due();
    round.clear();
    for (std::size_t j = 0; j < wl.cycle(); ++j) round.push_back(wl.submission(k + j));
    for (std::size_t j = 0; j < wl.cycle(); ++j) {
      (timed ? busy_ns : warm_ns) += step(k + j, round[j], timed);
    }
  }
}

/// The in-process corpus's digest of the stream prefix: remote_10k's
/// verdicts must equal library_10k's for the same seed.
std::string local_reference_digest(const Args& args, const Workload& wl,
                                   float delta) {
  Stack stack;
  (void)build_stack(stack, wl, args.model, delta, /*remote=*/false, nullptr);
  Digest digest;
  for (std::size_t k = 0; k < digest_count(wl); ++k) {
    Design d = wl.submission(k);
    digest.add(audit_one(*stack.service, d));
  }
  return digest.hex();
}

/// `speed` gives the kernel's median time and the scale applied to every
/// timing (a wall-clock time is the reported one divided by the scale; a
/// rate, multiplied).
void print_provenance(const Args& args, const Workload& wl, std::size_t samples,
                      std::size_t setup_reps, const HostSpeed& speed) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"smoke\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"sanitizer\": \"%s\", \"lock_order\": %s, "
      "\"library_rows\": %zu, \"samples\": %zu, \"setup_reps\": %zu, "
      "\"host_kernel_ms\": %.4f, \"host_kernel_samples\": %zu, "
      "\"timing_scale\": %.4f}\n",
      wl.name().c_str(), args.seed, args.trace ? 1 : 0, args.smoke ? 1 : 0,
      kCompiler, PERFBENCH_BUILD_TYPE, kSanitizer,
      kLockOrder ? "true" : "false", wl.library().size(), samples, setup_reps,
      speed.median_ms(), speed.samples(), speed.scale());
}

/// Setups per timed run; setup_s is their median. About 2.5 s of setups
/// on the small libraries (~40 ms each on rtl_mix, ~80 ms on
/// netlist_obf); five of the ~1.3-s cold builds of a 10k library, which
/// keeps a 25-s run of a 10k workload under 40 s.
std::size_t setup_reps(const Args& args, const Workload& wl) {
  if (args.smoke) return 3;
  if (wl.library().size() > 1000) return 5;
  return wl.name() == "rtl_mix" ? 61 : 31;
}

int run_timed(const Args& args, const Workload& wl, float delta) {
  reset_peak_rss();
  // Set up `reps` times and report the median. The first setup precedes
  // the warm-up; the others replace the serving stack between timed
  // rounds, spread evenly over the timed phase, so the median sees the
  // host as the audits do rather than in one short burst. A fresh stack
  // is in the state every commit leaves (the pinned library alone).
  const std::size_t reps = setup_reps(args, wl);
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<double> setups;
  Stack stack;
  setups.push_back(build_stack(stack, wl, args.model, delta, wl.remote(), nullptr));

  const std::size_t prefix = digest_count(wl);
  HostSpeed speed;
  Digest digest;
  Tally tally;
  std::size_t failed = 0;  // timed reports of the wrong kind
  bool warm_up_ok = true;  // no warm-up report of the wrong kind
  std::size_t warmup = 0;
  std::vector<double> latencies_ms;
  std::int64_t busy_ns = 0;
  drive(wl, args.seconds, speed, [&](std::size_t k, Design& d, bool timed) {
    if (timed && k % wl.cycle() == 0 && setups.size() < reps &&
        busy_ns * static_cast<std::int64_t>(reps) >=
            static_cast<std::int64_t>(setups.size()) * budget_ns) {
      setups.push_back(build_stack(stack, wl, args.model, delta, wl.remote(), nullptr));
    }
    const std::int64_t t0 = wall_ns();
    const audit::ScreenReport report = audit_one(*stack.service, d);
    const std::int64_t t1 = wall_ns();
    if (k < prefix) digest.add(report);
    if (timed) {
      if (!tally.add(wl, d, report)) ++failed;
      busy_ns += t1 - t0;
      latencies_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    } else {
      warm_up_ok = Tally().add(wl, d, report) && warm_up_ok;
      ++warmup;
    }
    return t1 - t0;
  });
  const double rss_mb = peak_rss_mb();
  stack.clear();

  if (wl.remote()) {
    const std::string local = local_reference_digest(args, wl, delta);
    if (local != digest.hex()) {
      throw Mismatch("remote_10k digest " + digest.hex() +
                     " differs from the in-process corpus's " + local);
    }
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const std::size_t n = latencies_ms.size();
  std::fprintf(stderr,
               "%s: %zu timed audits (%zu beyond p99), warm-up %zu, "
               "setup reps %zu\n",
               wl.name().c_str(), n, n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))),
               warmup, setups.size());
  print_provenance(args, wl, n, setups.size(), speed);
  std::printf("digest %s %s\n", wl.name().c_str(), digest.hex().c_str());
  const double scale = speed.scale();
  const std::vector<Metric> metrics = {
      {"audits_per_s",
       static_cast<double>(n) / (static_cast<double>(busy_ns) * 1e-9 * scale), "1/s"},
      {"latency_p50_ms", percentile(latencies_ms, 0.50) * scale, "ms"},
      {"latency_p99_ms", percentile(latencies_ms, 0.99) * scale, "ms"},
      {"setup_s", median(setups) * scale, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"success_share",
       static_cast<double>(tally.expected_kind) / static_cast<double>(tally.attempted),
       "ratio"},
      {"detect_accuracy",
       static_cast<double>(tally.correct) / static_cast<double>(tally.judged),
       "ratio"},
      {"detect_f1", tally.f1(), "ratio"},
  };
  std::printf("%s\n",
              result_json(failed == 0 && warm_up_ok, tally.attempted, failed, metrics)
                  .c_str());
  return 0;
}

/// Per-submission sums of the traced run, for the per-layer means.
struct LayerTotals {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> ns{};
  double self_ns = 0;
  double dist_wall_ns = 0;
  double dist_cpu_ns = 0;
  std::size_t audits = 0;
  std::size_t library_calls = 0;
  double source_bytes = 0;
  double nodes = 0;
  double edges = 0;
  double scanned = 0;
  double rescored = 0;
  double verdicts = 0;
  double evictions = 0;
  double rejected = 0;
};

int run_traced(const Args& args, const Workload& wl, float delta) {
  // Spans for one setup plus 14 per audit (~75k audits); reserve
  // generously so the span list never reallocates mid-run.
  Tracer tracer(wl.library().size() + (1u << 20));
  // The service is in-process on every workload: remote_10k's audit code
  // is library_10k's, and its two servers hold the dist replay instead,
  // so the run keeps three busy threads (the client and two serving
  // threads; each server's acceptor thread idles).
  Stack stack;
  const double setup_s =
      build_stack(stack, wl, args.model, delta, /*remote=*/false, &tracer);
  audit::AuditService& service = *stack.service;
  gnn::Hw2Vec& model = service.model();

  // Mirrors holding the same rows as the service's corpus: an in-process
  // ShardedCorpus and a DistCorpus on two shard servers.
  const audit::AuditOptions options = service_options(wl, delta);
  core::ShardedCorpus core_mirror(1, options.scorer);
  Cluster mirror_cluster(kServers);
  std::unique_ptr<dist::DistCorpus> dist_mirror = dist::DistCorpus::connect(
      mirror_cluster.endpoints(), gnn::model_fingerprint(model), options.scorer);
  gnn4ip::tensor::Tape tape;
  for (const Design& d : wl.library()) {
    const FrontEnd fe = replay_front_end(d.source, model, tape, nullptr, 0, -1);
    (void)core_mirror.add(d.name, fe.embedding);
    (void)dist_mirror->add(d.name, fe.embedding);
  }

  const std::size_t prefix = digest_count(wl);
  constexpr std::array<Layer, 3> kCoreLayers = {Layer::kCoreAdd, Layer::kCoreScreen,
                                                Layer::kCoreCompact};
  constexpr std::array<Layer, 3> kDistLayers = {Layer::kDistAdd, Layer::kDistScreen,
                                                Layer::kDistCompact};
  HostSpeed speed;
  Digest digest;
  Tally tally;
  LayerTotals totals;
  std::size_t failed = 0;  // timed reports of the wrong kind
  bool warm_up_ok = true;  // no warm-up report of the wrong kind
  drive(wl, args.seconds, speed, [&](std::size_t k, Design& d, bool timed) {
    const std::string source = d.source;  // audit_one consumes d.source
    const std::size_t first_span = tracer.spans().size();
    const std::int32_t service_span = tracer.begin(Layer::kService, k);
    const audit::ScreenReport report = audit_one(service, d);
    tracer.end(service_span);

    const std::int32_t replay_span = tracer.begin(Layer::kReplay, k);
    const FrontEnd fe = replay_front_end(source, model, tape, &tracer, k, replay_span);
    core::ScreenRow core_row;
    if (fe.ok) {
      core_row = replay_commit(core_mirror, d.name, fe.embedding, delta, tracer,
                               kCoreLayers, k, replay_span);
      const core::ScreenRow dist_row =
          replay_commit(*dist_mirror, d.name, fe.embedding, delta, tracer,
                        kDistLayers, k, replay_span);
      check_replay(report, core_row, core_mirror, "core");
      check_replay(report, dist_row, *dist_mirror, "dist");
    } else if (report.submission.accepted ||
               report.submission.error.message != fe.error) {
      throw Mismatch("replay does not reproduce the diagnostic of " + d.name);
    }
    tracer.end(replay_span);

    if (k < prefix) digest.add(report);
    const std::vector<Span>& spans = tracer.spans();
    const std::int64_t spent = spans[static_cast<std::size_t>(replay_span)].end_ns -
                               spans[static_cast<std::size_t>(service_span)].start_ns;
    if (!timed) {
      warm_up_ok = Tally().add(wl, d, report) && warm_up_ok;
      return spent;
    }
    if (!tally.add(wl, d, report)) ++failed;

    // Self time: the service call minus the replayed calls that ran on
    // the service's own path (the front end and core).
    double replayed_ns = 0;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      totals.ns[static_cast<std::size_t>(s.layer)] += dur;
      if (s.layer >= Layer::kParse && s.layer <= Layer::kCoreCompact) replayed_ns += dur;
      if (s.layer >= Layer::kDistAdd && s.layer <= Layer::kDistCompact) {
        totals.dist_wall_ns += dur;
        totals.dist_cpu_ns += static_cast<double>(s.cpu_ns);
      }
    }
    const Span& call = spans[static_cast<std::size_t>(service_span)];
    totals.self_ns += static_cast<double>(call.end_ns - call.start_ns) - replayed_ns;
    ++totals.audits;
    totals.source_bytes += static_cast<double>(source.size());
    totals.nodes += static_cast<double>(fe.nodes);
    totals.edges += static_cast<double>(fe.edges);
    totals.scanned += static_cast<double>(core_row.scanned);
    totals.rescored += static_cast<double>(core_row.rescored);
    totals.verdicts += static_cast<double>(report.verdicts.size());
    totals.evictions += report.submission.accepted &&
                                report.submission.corpus_index == core::ShardedCorpus::kNoIndex
                            ? 1.0
                            : 0.0;
    totals.rejected += report.submission.accepted ? 0.0 : 1.0;
    return spent;
  });
  dist_mirror.reset();  // hang up before the mirror servers stop
  stack.clear();
  for (const Span& s : tracer.spans()) {
    if (s.layer != Layer::kAddLibrary) continue;
    totals.ns[static_cast<std::size_t>(s.layer)] += static_cast<double>(s.end_ns - s.start_ns);
    ++totals.library_calls;
  }
  if (!args.spans.empty()) tracer.write(args.spans);

  const auto audits = static_cast<double>(totals.audits);
  const double scale = speed.scale();
  const auto mean_us = [&](Layer layer) {
    return totals.ns[static_cast<std::size_t>(layer)] * 1e-3 * scale / audits;
  };
  std::fprintf(stderr, "%s traced: %zu audits, setup %.3f s\n", wl.name().c_str(),
               totals.audits, setup_s);
  print_provenance(args, wl, totals.audits, 1, speed);
  std::printf("digest %s %s\n", wl.name().c_str(), digest.hex().c_str());
  const std::vector<Metric> metrics = {
      {"verilog.parse_us", mean_us(Layer::kParse), "us"},
      {"verilog.elaborate_us", mean_us(Layer::kElaborate), "us"},
      {"dfg.dataflow_us", mean_us(Layer::kDataflow), "us"},
      {"dfg.merge_us", mean_us(Layer::kMerge), "us"},
      {"dfg.trim_us", mean_us(Layer::kTrim), "us"},
      {"gnn.featurize_us", mean_us(Layer::kFeaturize), "us"},
      {"gnn.embed_us", mean_us(Layer::kEmbed), "us"},
      {"core.add_us", mean_us(Layer::kCoreAdd), "us"},
      {"core.screen_us", mean_us(Layer::kCoreScreen), "us"},
      {"core.compact_us", mean_us(Layer::kCoreCompact), "us"},
      {"audit.self_us", totals.self_ns * 1e-3 * scale / audits, "us"},
      {"audit.add_library_us",
       totals.ns[static_cast<std::size_t>(Layer::kAddLibrary)] * 1e-3 * scale /
           static_cast<double>(totals.library_calls),
       "us"},
      {"dist.add_us", mean_us(Layer::kDistAdd), "us"},
      {"dist.screen_us", mean_us(Layer::kDistScreen), "us"},
      {"dist.compact_us", mean_us(Layer::kDistCompact), "us"},
      {"dist.wait_share", (totals.dist_wall_ns - totals.dist_cpu_ns) / totals.dist_wall_ns,
       "ratio"},
      {"verilog.source_bytes", totals.source_bytes / audits, "B"},
      {"dfg.nodes", totals.nodes / audits, "count"},
      {"dfg.edges", totals.edges / audits, "count"},
      {"core.scanned", totals.scanned / audits, "count"},
      {"core.rescored", totals.rescored / audits, "count"},
      {"core.rescore_share", totals.rescored / totals.scanned, "ratio"},
      {"audit.verdicts", totals.verdicts / audits, "count"},
      {"audit.evictions", totals.evictions / audits, "count"},
      {"audit.rejected", totals.rejected / audits, "count"},
  };
  std::printf("%s\n",
              result_json(failed == 0 && warm_up_ok, tally.attempted, failed, metrics)
                  .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: verdict_bench train <rtl|netlist> <model-path>\n"
               "       verdict_bench run --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --model <path> [--spans <path>] "
               "[--smoke]\n");
  return kExitUsage;
}

int run_main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "train") == 0) {
    return argc == 4 ? train(argv[2], argv[3]) : usage();
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage();
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--model") {
      args.model = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.model.empty() || args.seconds <= 0) return usage();
  const std::string unfit = unfit_build_reason();
  if (!unfit.empty()) {
    std::fprintf(stderr, "refusing to time this build: %s\n", unfit.c_str());
    return kExitUnfitBuild;
  }
  const float delta = read_delta(args.model);
  const Workload wl(args.workload, args.seed, args.smoke);
  return args.trace ? run_traced(args, wl, delta) : run_timed(args, wl, delta);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const perfbench::Mismatch& e) {
    std::fprintf(stderr, "verdict check failed: %s\n", e.what());
    return perfbench::kExitMismatch;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return perfbench::kExitError;
  }
}
