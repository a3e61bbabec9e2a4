// Runtime lock-order validator tests (src/util/lock_order.h).
//
// The death tests prove the validator actually fires: an acquisition
// that contradicts the canonical rank table must abort deterministically
// on the first inverted acquisition, with the violation named in the
// message — not deadlock probabilistically under load. The non-death
// tests prove the bookkeeping is exact (held counts through scoped
// guards, release-from-middle) so a silent run means "order respected",
// not "validator lost track".
//
// The whole file compiles to a single GTEST_SKIP when the build does
// not define GNN4IP_LOCK_ORDER (the validator is a sanitize-build
// feature; see CMakeLists.txt).
#include <gtest/gtest.h>

#include "util/lock_order.h"
#include "util/thread_annotations.h"

#ifdef GNN4IP_LOCK_ORDER

namespace {

using gnn4ip::util::LockOrderRegistry;
using gnn4ip::util::Mutex;
using gnn4ip::util::MutexLock;
using gnn4ip::util::ReaderLock;
using gnn4ip::util::SharedMutex;
namespace lock_rank = gnn4ip::util::lock_rank;

// The distributed corpus's lock acquired before the service state — the
// documented order (state < dist: the audit layer calls into the corpus
// holding state_mu_) inverted. Direct lock calls, balanced so the static
// analysis is satisfied even though the unlocks after the abort are
// unreachable.
void acquire_dist_then_state() {
  SharedMutex state{lock_rank::kState};
  Mutex dist{lock_rank::kDist};
  dist.lock();
  state.lock_shared();  // rank 50 under rank 60: aborts here
  state.unlock_shared();
  dist.unlock();
}

TEST(LockOrderDeathTest, DistBeforeStateAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(acquire_dist_then_state(), "LOCK ORDER VIOLATION");
}

// Equal ranks can never nest: "strictly greater" is what makes the
// order a total one (two queue-ranked locks acquired together would
// deadlock against a thread acquiring them the other way around).
void acquire_equal_rank_twice() {
  Mutex a{lock_rank::kQueue};
  Mutex b{lock_rank::kQueue};
  a.lock();
  b.lock();  // same rank as a: aborts here
  b.unlock();
  a.unlock();
}

TEST(LockOrderDeathTest, EqualRankNestingAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(acquire_equal_rank_twice(), "LOCK ORDER VIOLATION");
}

// The canonical descent — commit, state, dist, pool spawn, pool batch
// — is silent, and every scoped guard is visible in the held count.
TEST(LockOrderTest, CanonicalDescentIsSilentAndTracked) {
  Mutex commit{lock_rank::kCommit};
  SharedMutex state{lock_rank::kState};
  Mutex dist{lock_rank::kDist};
  Mutex spawn{lock_rank::kPoolSpawn};
  Mutex batch{lock_rank::kPoolBatch};

  EXPECT_EQ(LockOrderRegistry::held_count(), 0u);
  {
    MutexLock c(commit);
    ReaderLock s(state);
    MutexLock d(dist);
    MutexLock p(spawn);
    MutexLock b(batch);
    EXPECT_EQ(LockOrderRegistry::held_count(), 5u);
  }
  EXPECT_EQ(LockOrderRegistry::held_count(), 0u);
}

// Releasing from the middle of the held stack is legal — an outer lock
// dropped while an inner one is still held — and must not corrupt the
// bookkeeping for the locks still held above and below it.
TEST(LockOrderTest, ReleaseFromMiddleOfStack) {
  SharedMutex state{lock_rank::kState};
  Mutex spawn{lock_rank::kPoolSpawn};
  Mutex batch{lock_rank::kPoolBatch};
  state.lock_shared();
  spawn.lock();
  batch.lock();
  EXPECT_EQ(LockOrderRegistry::held_count(), 3u);
  spawn.unlock();
  EXPECT_EQ(LockOrderRegistry::held_count(), 2u);
  batch.unlock();
  state.unlock_shared();
  EXPECT_EQ(LockOrderRegistry::held_count(), 0u);
}

// Unranked locks (default-constructed, order < 0) are invisible to the
// validator in any position.
TEST(LockOrderTest, UnrankedLocksAreIgnored) {
  Mutex ranked{lock_rank::kQueue};
  Mutex unranked;
  MutexLock r(ranked);
  const std::size_t held = LockOrderRegistry::held_count();
  MutexLock u(unranked);
  EXPECT_EQ(LockOrderRegistry::held_count(), held);
}

}  // namespace

#else  // !GNN4IP_LOCK_ORDER

TEST(LockOrderTest, DisabledInThisBuild) {
  GTEST_SKIP() << "built without GNN4IP_LOCK_ORDER; the validator and "
                  "its death tests are compiled out";
}

#endif  // GNN4IP_LOCK_ORDER
