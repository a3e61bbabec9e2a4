// Tests for contract checking, string helpers, the deterministic RNG,
// and the worker pool behind the parallel embedding pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/bounded_queue.h"
#include "util/contract.h"
#include "util/name_map.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gnn4ip::util {
namespace {

TEST(Contract, ThrowsWithLocationAndMessage) {
  try {
    GNN4IP_ENSURE(1 == 2, "math is broken");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Contract, PassesSilently) {
  EXPECT_NO_THROW(GNN4IP_ENSURE(2 + 2 == 4, "unused"));
}

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("module foo", "module"));
  EXPECT_FALSE(starts_with("mod", "module"));
  EXPECT_TRUE(ends_with("foo.v", ".v"));
  EXPECT_FALSE(ends_with("v", ".v"));
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("xyx", "y", ""), "xx");
  EXPECT_EQ(replace_all("abc", "", "z"), "abc");
}

TEST(StringUtil, IsIdentifier) {
  EXPECT_TRUE(is_identifier("foo_1"));
  EXPECT_TRUE(is_identifier("_x$y"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%zu", static_cast<std::size_t>(7)), "7");
}

TEST(NameMap, FirstInsertWins) {
  NameMap<int> map;
  const auto [first, inserted] = map.try_emplace("clk", 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*first, 1);
  const auto [again, reinserted] = map.try_emplace("clk", 2);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(*again, 1);
  ASSERT_NE(map.find("clk"), nullptr);
  EXPECT_EQ(*map.find("clk"), 1);
  EXPECT_EQ(map.size(), 1u);
}

TEST(NameMap, FindMissesAnAbsentName) {
  const NameMap<int> empty;
  EXPECT_EQ(empty.find("a"), nullptr);
  EXPECT_EQ(empty.size(), 0u);
  NameMap<int> map(4);
  map.try_emplace("a", 1);
  EXPECT_EQ(map.find("b"), nullptr);
  EXPECT_EQ(map.find(""), nullptr);
  EXPECT_EQ(map.find("aa"), nullptr);
  map.try_emplace("", 2);
  ASSERT_NE(map.find(""), nullptr);
  EXPECT_EQ(*map.find(""), 2);
}

TEST(NameMap, EveryEntrySurvivesGrowth) {
  // Keys are views, so the names must stay where they are: they are all
  // made before the first insert. 10,000 names grow the table from 16
  // slots to 32,768.
  std::vector<std::string> names;
  for (int i = 0; i < 10'000; ++i) names.push_back("n" + std::to_string(i));
  NameMap<std::size_t> map;
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(map.try_emplace(names[i], i).second) << names[i];
  }
  EXPECT_EQ(map.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::size_t* value = map.find(names[i]);
    ASSERT_NE(value, nullptr) << names[i];
    EXPECT_EQ(*value, i);
    EXPECT_FALSE(map.try_emplace(names[i], 0).second) << names[i];
  }
  EXPECT_EQ(map.size(), names.size());
  EXPECT_EQ(map.find("n10000"), nullptr);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyStandardMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, FlipProbability) {
  Rng rng(13);
  int heads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.flip(0.25)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.03);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(21);
  Rng child = a.fork();
  // Child stream differs from parent's continued stream.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0F, 3.0F);
    EXPECT_GE(x, -2.0F);
    EXPECT_LT(x, 3.0F);
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.size(), workers);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(10, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45u);
  }
}

TEST(ThreadPool, ZeroCountIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstException) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [](std::size_t i) {
                            if (i == 17) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(4, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 6u);
  }
}

TEST(ThreadPool, ConcurrentExternalCallersAreSerialized) {
  // Two application threads sharing one pool must not corrupt each
  // other's batches (batch state is one slot; callers serialize).
  ThreadPool pool(4);
  std::vector<std::size_t> a(200, 0);
  std::vector<std::size_t> b(200, 0);
  std::thread caller_a([&] {
    for (int rep = 0; rep < 20; ++rep) {
      pool.parallel_for(a.size(), [&](std::size_t i) { a[i] = i + 1; });
    }
  });
  std::thread caller_b([&] {
    for (int rep = 0; rep < 20; ++rep) {
      pool.parallel_for(b.size(), [&](std::size_t i) { b[i] = i + 7; });
    }
  });
  caller_a.join();
  caller_b.join();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], i + 1);
    EXPECT_EQ(b[i], i + 7);
  }
}

TEST(ThreadPool, DeterministicSlotWritesForAnyWorkerCount) {
  // The fan-out contract: worker count never changes per-index results.
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> out(64);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += std::sin(i + k * 0.1);
      out[i] = acc;
    });
    return out;
  };
  const std::vector<double> one = run(1);
  const std::vector<double> two = run(2);
  const std::vector<double> eight = run(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvKnob) {
  ASSERT_EQ(setenv("GNN4IP_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ASSERT_EQ(setenv("GNN4IP_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("GNN4IP_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ParallelMapReduce, FoldOrderIsIndexOrderForAnyWorkerCount) {
  // map runs on the pool; the fold must run afterwards, sequentially, in
  // index order — so an order-sensitive float reduction is bit-identical
  // for any worker count.
  auto run = [](std::size_t num_threads) {
    std::vector<float> mapped(64);
    float folded = 1.0F;
    std::vector<std::size_t> fold_order;
    parallel_map_reduce(
        mapped.size(), num_threads,
        [&](std::size_t i) {
          mapped[i] = 1.0F + 1.0F / static_cast<float>(i + 1);
        },
        [&](std::size_t i) {
          folded *= mapped[i];  // deliberately non-associative-friendly
          fold_order.push_back(i);
        });
    for (std::size_t i = 0; i < fold_order.size(); ++i) {
      EXPECT_EQ(fold_order[i], i);
    }
    return folded;
  };
  const float one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(8), one);
  EXPECT_EQ(run(0), one);
}

TEST(ParallelFor, ExplicitCountsAndSharedPoolAgree) {
  auto run = [](std::size_t num_threads) {
    std::vector<std::size_t> out(32);
    parallel_for(out.size(), num_threads,
                 [&](std::size_t i) { out[i] = i * i; });
    return out;
  };
  const auto expected = run(1);
  EXPECT_EQ(run(2), expected);
  EXPECT_EQ(run(8), expected);
  EXPECT_EQ(run(0), expected);  // shared pool
}

TEST(BoundedQueue, TryPushRefusesBeyondCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  EXPECT_EQ(queue.size(), 2u);
  const std::vector<int> batch = queue.drain();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);  // FIFO order
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.try_push(3));
}

TEST(BoundedQueue, DrainOnEmptyReturnsNothing) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.drain().empty());
}

TEST(BoundedQueue, BlockingPushResumesAfterDrain) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2));  // blocks until drain
  });
  std::vector<int> first = queue.drain();
  producer.join();
  std::vector<int> second = queue.drain();
  ASSERT_EQ(first.size() + second.size(), 2u);
  EXPECT_EQ(first[0], 1);
}

TEST(BoundedQueue, PushAfterCloseFailsAndValueSurvives) {
  BoundedQueue<std::string> queue(4);
  EXPECT_TRUE(queue.try_push("before"));
  queue.close();
  EXPECT_TRUE(queue.closed());
  std::string kept = "after";
  EXPECT_FALSE(queue.try_push(std::move(kept)));
  EXPECT_EQ(kept, "after");  // untouched on refusal
  EXPECT_FALSE(queue.push(std::move(kept)));
  EXPECT_EQ(kept, "after");
  EXPECT_EQ(queue.size(), 1u);  // only the pre-close item is pending
}

TEST(BoundedQueue, PopDrainsRemainingThenReportsClosed) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  queue.close();
  // Drain-on-close: everything accepted before close() is still
  // delivered, in FIFO order, and only then does pop() report closed.
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.pop(), std::nullopt);  // stays closed
}

TEST(BoundedQueue, PopForTimesOutEmptyHanded) {
  BoundedQueue<int> queue(4);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_for(std::chrono::milliseconds(10)), std::nullopt);
  // The deadline actually bounds the wait — no indefinite block on an
  // empty queue (the accept-loop contract).
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(9));
  EXPECT_FALSE(queue.closed());  // a timeout is not a close
}

TEST(BoundedQueue, PopForReturnsItemArrivingMidWait) {
  BoundedQueue<int> queue(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(queue.try_push(7));
  });
  // A generous deadline: the item must arrive well before it, and
  // pop_for must hand it over rather than sleep out the full window.
  EXPECT_EQ(queue.pop_for(std::chrono::seconds(10)), std::optional<int>(7));
  producer.join();
}

TEST(BoundedQueue, PopForImmediateWhenItemPending) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(1));
  // Zero deadline with an item already queued: delivery, not a timeout.
  EXPECT_EQ(queue.pop_for(std::chrono::milliseconds(0)),
            std::optional<int>(1));
}

TEST(BoundedQueue, PopForDrainsThenReportsClosed) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(1));
  queue.close();
  // Drain-on-close parity with pop(): the pre-close item first, then
  // nullopt immediately (closed + empty never waits out the deadline).
  EXPECT_EQ(queue.pop_for(std::chrono::seconds(10)), std::optional<int>(1));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_for(std::chrono::seconds(10)), std::nullopt);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
}

TEST(BoundedQueue, CloseWakesPopForMidWait) {
  BoundedQueue<int> queue(4);
  std::optional<int> result = 42;
  std::thread consumer([&] {
    result = queue.pop_for(std::chrono::seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.close();
  consumer.join();  // must return promptly, not after 30s
  EXPECT_EQ(result, std::nullopt);
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(2);
  std::optional<int> result = 42;
  std::thread consumer([&] { result = queue.pop(); });  // blocks: empty
  queue.close();
  consumer.join();
  EXPECT_EQ(result, std::nullopt);
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));  // queue now full
  bool pushed = true;
  std::thread producer([&] { pushed = queue.push(2); });  // blocks: full
  queue.close();
  producer.join();
  EXPECT_FALSE(pushed);
  // The pre-close item is still poppable after the failed push.
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, ConcurrentProducersRacingCloseLoseNothingAccepted) {
  // Producers hammer try_push while the main thread closes mid-stream; a
  // consumer drains with pop() until the queue reports closed. Every
  // accepted push must come out exactly once — acceptance and delivery
  // may race close(), but never tear. Producers retry on "full" but bail
  // out on "closed", so the test terminates no matter how the close
  // lands relative to their progress.
  BoundedQueue<int> queue(16);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &accepted, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!queue.try_push(p * kPerProducer + i)) {
          if (queue.closed()) return;  // lost the race: stop producing
          std::this_thread::yield();   // full: wait for the consumer
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::atomic<int> delivered{0};
  std::thread consumer([&queue, &delivered] {
    while (queue.pop().has_value()) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Let some traffic through, then slam the door while producers race.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.close();
  for (std::thread& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(delivered.load(), accepted.load());
  EXPECT_TRUE(queue.empty());
  // And the door stays shut.
  EXPECT_FALSE(queue.try_push(-1));
}

TEST(BoundedQueue, ConcurrentProducersLoseNothing) {
  BoundedQueue<int> queue(1024);
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.try_push(p * kPerProducer + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  std::vector<int> all = queue.drain();
  ASSERT_EQ(all.size(), 4u * kPerProducer);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 4 * kPerProducer; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  }
}

}  // namespace
}  // namespace gnn4ip::util
