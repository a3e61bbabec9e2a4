#include "util/lock_order.h"

#ifdef GNN4IP_LOCK_ORDER

#include <cstdio>
#include <cstdlib>

namespace gnn4ip::util {
namespace {

struct HeldLock {
  int order;
  const char* name;
};

// Per-thread stack of ranked locks, innermost (highest rank) on top.
// The strict-increase rule in note_acquire keeps it sorted ascending,
// so "top" is also "max held".
//
// Deliberately a trivially-destructible POD array, not a std::vector:
// the main thread's thread_local destructors run *before* static
// destructors ([basic.start.term]), and the process-wide
// ThreadPool::shared() pool locks its mutex while being destroyed at
// exit — a vector here would be pushed into after its own destructor
// ran. A fixed capacity also keeps the validator allocation-free on
// every acquisition path.
constexpr std::size_t kMaxHeld = 256;
thread_local HeldLock g_held[kMaxHeld];
thread_local std::size_t g_held_count = 0;

[[noreturn]] void abort_with_stacks(const LockRank& attempted) {
  std::fprintf(stderr,
               "gnn4ip: LOCK ORDER VIOLATION: acquiring '%s' (rank %d)\n"
               "  while holding (outermost first):\n",
               attempted.name, attempted.order);
  for (std::size_t i = 0; i < g_held_count; ++i) {
    std::fprintf(stderr, "    '%s' (rank %d)\n", g_held[i].name,
                 g_held[i].order);
  }
  std::fprintf(stderr,
               "  a lock's rank must exceed every held rank; see "
               "src/util/lock_order.h for the global order.\n");
  std::abort();
}

}  // namespace

void LockOrderRegistry::note_acquire(const LockRank& rank) {
  if (rank.order < 0) return;
  if (g_held_count > 0 && g_held[g_held_count - 1].order >= rank.order) {
    abort_with_stacks(rank);
  }
  // Past capacity (deeper than any nesting in the tree), deeper locks go
  // unrecorded: the order among the first kMaxHeld is still checked,
  // and note_release tolerates the unrecorded tail.
  if (g_held_count < kMaxHeld) {
    g_held[g_held_count++] = HeldLock{rank.order, rank.name};
  }
}

void LockOrderRegistry::note_release(const LockRank& rank) {
  if (rank.order < 0) return;
  // Release from the middle is legal (e.g. an outer lock dropped while
  // an inner one is still held); search from the top.
  for (std::size_t i = g_held_count; i-- > 0;) {
    if (g_held[i].order == rank.order) {
      for (std::size_t j = i + 1; j < g_held_count; ++j) {
        g_held[j - 1] = g_held[j];
      }
      --g_held_count;
      return;
    }
  }
  // Releasing a lock the registry never saw: tolerated — the overflow
  // tail above is exactly this case.
}

std::size_t LockOrderRegistry::held_count() { return g_held_count; }

}  // namespace gnn4ip::util

#endif  // GNN4IP_LOCK_ORDER
