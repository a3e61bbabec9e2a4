// Scenario: an IP vendor audits a portfolio of incoming third-party
// designs against its own IP library — the paper's core use case
// ("an effective IP piracy detection method is crucial for IP providers
// to disclose the theft").
//
// The vendor library holds several in-house designs, pinned into the
// audit service so eviction can never drop them. The incoming batch
// contains (a) an honest unrelated design, (b) a renamed copy of a
// library IP, and (c) a restructured (style-converted) copy — plus one
// malformed file, which gets a per-design diagnostic instead of killing
// the batch. Everything flows through audit::AuditService: submit,
// screen, verdicts.
//
// Part two replays the same portfolio through the production front end:
// a two-shard resident corpus behind audit::AsyncAuditor's consumer
// pool, which screens continuously while producers keep submitting —
// the verdicts come back through futures, bit-identical to part one's.
// Part three turns the volume up: several producer threads race the
// pool with eviction live, the shape a vendor's intake queue actually
// has.
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "data/rtl_designs.h"

int main() {
  using namespace gnn4ip;

  std::printf("training detector on the bundled corpus...\n");
  data::RtlCorpusOptions corpus;
  corpus.instances_per_family = 6;
  DetectorConfig config;
  config.model.seed = 5;
  PiracyDetector detector(config);
  train::TrainConfig tc;
  tc.epochs = 60;
  tc.learning_rate = 3e-3F;
  const auto eval = detector.train_on(
      make_graph_entries(data::build_rtl_corpus(corpus)), tc);
  std::printf("held-out accuracy %.1f%%\n\n",
              100.0 * eval.confusion.accuracy());

  // The audit service owns the model, the resident corpus, and the
  // worker pool; δ comes from the shared ScorerOptions. max_resident
  // bounds the cache — pinned library rows don't get evicted, screened
  // submissions do once the bound is hit.
  audit::AuditOptions options;
  options.scorer.delta = detector.delta();
  options.max_resident = 5;
  audit::AuditService service(detector.model(), options);

  // Vendor library (unseen instance seeds), pinned resident IP.
  (void)service.add_library("lib:crc8", data::gen_crc8({0, 7001}));
  (void)service.add_library("lib:uart_tx", data::gen_uart_tx({0, 7002}));
  (void)service.add_library("lib:fifo_ctrl", data::gen_fifo_ctrl({0, 7003}));
  std::printf("library resident: %zu designs (pinned)\n\n",
              service.resident());

  // Incoming portfolio: one honest design, one renamed CRC copy, one
  // style-rewritten UART, one file that does not even parse.
  (void)service.submit("in:pwm (honest)", data::gen_pwm({0, 7004}));
  (void)service.submit("in:crc8-renamed (stolen)", data::gen_crc8({0, 7005}));
  (void)service.submit("in:uart-restyled (stolen)",
                       data::gen_uart_tx({1, 7006}));
  (void)service.submit("in:corrupted", "module broken (input a, ;;;");

  int flagged = 0;
  for (const audit::ScreenReport& report : service.screen()) {
    const audit::Submission& s = report.submission;
    if (!s.accepted) {
      std::printf("%-28s parse error: %s\n", s.name.c_str(),
                  s.error.to_string().c_str());
      continue;
    }
    if (report.verdicts.empty()) {
      std::printf("%-28s clean (closest: %s %+.4f)\n", s.name.c_str(),
                  report.best ? report.best->matched.c_str() : "-",
                  report.best ? report.best->similarity : 0.0F);
      continue;
    }
    for (const audit::Verdict& v : report.verdicts) {
      std::printf("%-28s [!] matches %-14s %+.4f\n", s.name.c_str(),
                  v.matched.c_str(), v.similarity);
      ++flagged;
    }
  }
  std::printf(
      "\n%d pair(s) flagged above delta = %+.3f; resident after eviction: "
      "%zu\n",
      flagged, service.delta(), service.resident());

  // ---- Part two: the same audit as a daemon -----------------------------
  // Production shape: the resident corpus is split across two hash-placed
  // shards, and a pool of AsyncAuditor consumer threads drains the
  // submission queue continuously — producers get a future per design
  // and never wait for a batch boundary. Every submission commits
  // individually in ticket (submission) order, so however the pool
  // happens to batch, the verdicts match part one's bit for bit — with
  // the same real eviction budget as part one, no cache pinning needed.
  std::printf("\n--- async daemon, 2-shard corpus, 2 consumers ---\n");
  audit::AuditOptions async_options = options;  // same max_resident = 5
  async_options.num_shards = 2;
  audit::AsyncOptions pool;
  pool.num_consumers = 2;
  audit::AsyncAuditor auditor(detector.model(), async_options, pool);
  (void)auditor.service().add_library("lib:crc8", data::gen_crc8({0, 7001}));
  (void)auditor.service().add_library("lib:uart_tx",
                                      data::gen_uart_tx({0, 7002}));
  (void)auditor.service().add_library("lib:fifo_ctrl",
                                      data::gen_fifo_ctrl({0, 7003}));

  std::vector<std::future<audit::ScreenReport>> futures;
  futures.push_back(
      auditor.submit("in:pwm (honest)", data::gen_pwm({0, 7004})));
  futures.push_back(
      auditor.submit("in:crc8-renamed (stolen)", data::gen_crc8({0, 7005})));
  futures.push_back(auditor.submit("in:uart-restyled (stolen)",
                                   data::gen_uart_tx({1, 7006})));
  futures.push_back(
      auditor.submit("in:corrupted", "module broken (input a, ;;;"));

  for (std::future<audit::ScreenReport>& future : futures) {
    const audit::ScreenReport report = future.get();
    const audit::Submission& s = report.submission;
    if (!s.accepted) {
      std::printf("%-28s parse error: %s\n", s.name.c_str(),
                  s.error.to_string().c_str());
    } else if (report.verdicts.empty()) {
      std::printf("%-28s clean (closest: %s %+.4f)\n", s.name.c_str(),
                  report.best ? report.best->matched.c_str() : "-",
                  report.best ? report.best->similarity : 0.0F);
    } else {
      for (const audit::Verdict& v : report.verdicts) {
        std::printf("%-28s [!] matches %-14s %+.4f\n", s.name.c_str(),
                    v.matched.c_str(), v.similarity);
      }
    }
  }
  auditor.close();
  std::printf("daemon screened %zu submission(s) in %zu batch(es), "
              "%zu shard(s), %zu consumer(s)\n",
              auditor.reported(), auditor.batches(),
              auditor.service().corpus().num_shards(), auditor.consumers());

  // ---- Part three: concurrent intake under eviction pressure ------------
  // The shape a real intake queue has: several producer threads race
  // each other into the bounded queue while the consumer pool screens
  // and the max_resident bound evicts continuously. Interleaving changes
  // which screened designs are co-resident when a given submission commits
  // (so per-run verdict sets differ here, unlike parts one and two
  // where a single producer fixes the ticket order) — but every future
  // resolves, pinned library rows survive every eviction, and the
  // resident bound holds.
  std::printf("\n--- concurrent intake: 3 producers x 2 consumers ---\n");
  audit::AsyncAuditor intake(detector.model(), async_options, pool);
  (void)intake.service().add_library("lib:crc8", data::gen_crc8({0, 7001}));
  (void)intake.service().add_library("lib:uart_tx",
                                     data::gen_uart_tx({0, 7002}));
  (void)intake.service().add_library("lib:fifo_ctrl",
                                     data::gen_fifo_ctrl({0, 7003}));

  std::mutex results_mu;
  std::vector<std::future<audit::ScreenReport>> intake_futures;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int k = 0; k < 4; ++k) {
        const unsigned seed = 8000u + static_cast<unsigned>(p * 4 + k);
        const std::string name =
            "in:p" + std::to_string(p) + "#" + std::to_string(k);
        std::future<audit::ScreenReport> f =
            (k % 2 == 0) ? intake.submit(name, data::gen_pwm({0, seed}))
                         : intake.submit(name, data::gen_crc8({0, seed}));
        std::lock_guard<std::mutex> lock(results_mu);
        intake_futures.push_back(std::move(f));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  intake.quiesce();

  std::size_t piracy_hits = 0;
  for (std::future<audit::ScreenReport>& future : intake_futures) {
    const audit::ScreenReport report = future.get();
    if (report.submission.accepted && !report.verdicts.empty()) ++piracy_hits;
  }
  intake.close();
  std::printf("screened %zu racing submission(s); %zu flagged; resident "
              "%zu (bound %zu), library still pinned: %s\n",
              intake.reported(), piracy_hits, intake.service().resident(),
              async_options.max_resident,
              intake.service().contains("lib:crc8") ? "yes" : "NO");
  return 0;
}
