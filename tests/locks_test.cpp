// locks_test.cpp — per-algorithm properties of the baseline locks:
// try_lock semantics, RAII interop, FIFO admission, several instances
// held at once, the futex mutex's progress past the CPU count, and the
// node layer's held chain (no nesting limit, unmatched unlocks abort)
// under every lock that holds through it. Mutual exclusion and
// progress for every catalogue row are validate_test's exclusion
// battery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "harness/team.hpp"
#include "catalog/catalog.hpp"
#include "core/qsv_mutex.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/futex.hpp"
#include "locks/tas.hpp"
#include "locks/ticket.hpp"
#include "qsv/cohort_mutex.hpp"
#include "qsv/mutex.hpp"
#include "workload/critical_section.hpp"

namespace ql = qsv::locks;

// -------------------------------------------------------------- try_lock

TEST(TasLock, TryLockSemantics) {
  ql::TasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLock, TryLockSemantics) {
  ql::TicketLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(FutexMutex, TryLockSemantics) {
  ql::FutexMutex m;
  ASSERT_TRUE(m.try_lock());
  std::thread t([&] { EXPECT_FALSE(m.try_lock()); });
  t.join();
  m.unlock();
  ASSERT_TRUE(m.try_lock());
  m.unlock();
}

// ----------------------------------------------------------------- guard
//
// The baseline locks drop straight into the std RAII wrappers.

TEST(Guard, ReleasesOnScopeExit) {
  ql::TasLock lock;
  {
    std::unique_lock<ql::TasLock> g(lock);
    EXPECT_FALSE(lock.try_lock());
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Guard, EarlyUnlockIsIdempotent) {
  ql::TicketLock lock;
  {
    std::unique_lock<ql::TicketLock> g(lock);
    g.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
  }  // destructor must not double-unlock
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// ---------------------------------------------------------------- deeper
// FIFO property: with a queue lock, acquisition order must match the
// order in which threads enqueued. We serialize entry with a ticket
// dispenser, then check the lock admits in dispenser order.

template <typename Lock>
void fifo_property(Lock& lock) {
  // Four contenders at most, and never more than the CPUs: the ticket
  // lock spins whatever the policy.
  constexpr std::size_t kRounds = 500;
  const std::size_t kTeam = qsv::test::capped_crew(4);
  std::atomic<std::uint64_t> dispenser{0};
  std::vector<std::uint64_t> admitted;
  admitted.reserve(kTeam * kRounds);

  // Each thread: take a sequence number, immediately enqueue on the
  // lock. Inside the CS, record the sequence number. FIFO locks admit
  // in near-dispenser order; we tolerate the inherent window between
  // dispenser and enqueue by checking bounded reordering rather than
  // exact order.
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const std::uint64_t seq = dispenser.fetch_add(1);
      lock.lock();
      admitted.push_back(seq);
      lock.unlock();
    }
  });

  ASSERT_EQ(admitted.size(), kTeam * kRounds);
  // Bounded reordering: each thread has at most one operation in the
  // dispenser->enqueue window, so displacement stays O(team) for FIFO
  // locks — versus O(rounds) streaks for unfair locks. The generous
  // bound absorbs scheduler preemption inside the window.
  std::size_t violations = 0;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const auto displacement =
        admitted[i] > i ? admitted[i] - i : i - admitted[i];
    if (displacement > 64) ++violations;
  }
  // Allow a whisker of preemption-induced outliers (<0.5%).
  EXPECT_LE(violations, admitted.size() / 200);
}

TEST(TicketLock, FifoProperty) {
  ql::TicketLock lock;
  fifo_property(lock);
}

TEST(QsvMutex, FifoProperty) {
  qsv::core::QsvMutex lock;
  fifo_property(lock);
}

TEST(ClhLock, FifoProperty) {
  ql::ClhLock lock;
  fifo_property(lock);
}

TEST(AndersonLock, FifoProperty) {
  ql::AndersonLock lock(4);
  fifo_property(lock);
}

// ----------------------------------------------------- multiple instances

TEST(ClhLock, ThreadMayHoldSeveralLocksAtOnce) {
  ql::ClhLock a, b;
  a.lock();
  b.lock();
  a.unlock();
  b.unlock();
  SUCCEED();
}

TEST(ClhLock, ManyConstructDestroyCyclesDoNotLeakNodes) {
  // CLH recycles nodes through the arena; repeated lock lifecycles with
  // held/released states must keep working.
  for (int i = 0; i < 100; ++i) {
    ql::ClhLock lock;
    lock.lock();
    lock.unlock();
  }
  SUCCEED();
}

// ------------------------------------------------------------ held chain
//
// A node-based lock finds its hold in the calling thread's chain of held
// nodes (platform::HeldList): any depth, any release order, and an
// unlock the thread does not hold aborts.

namespace {

constexpr std::size_t kHeld = 1000;

/// Hold every lock at once, then release them in a seeded shuffled
/// order; each must be free afterwards.
template <typename Lock>
void hold_all_release_shuffled(std::vector<Lock*> locks) {
  for (Lock* l : locks) l->lock();
  std::mt19937 rng(26);
  std::shuffle(locks.begin(), locks.end(), rng);
  for (Lock* l : locks) l->unlock();
  for (Lock* l : locks) {
    if constexpr (requires { l->try_lock(); }) {
      ASSERT_TRUE(l->try_lock());
      l->unlock();
    } else {
      l->lock();
      l->unlock();
    }
  }
}

template <typename Lock>
void hold_a_thousand() {
  std::vector<Lock> locks(kHeld);
  std::vector<Lock*> ptrs;
  for (Lock& l : locks) ptrs.push_back(&l);
  hold_all_release_shuffled(std::move(ptrs));
}

constexpr const char* kNotHeld = "unlock of a lock this thread does not hold";

/// An unlock of a never-locked instance, and one from a thread that
/// does not hold the lock, both abort with the node layer's message.
template <typename Lock>
void unmatched_unlocks_abort() {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Lock l;
        l.unlock();
      },
      kNotHeld);
  EXPECT_DEATH(
      {
        Lock l;
        l.lock();
        std::thread([&l] { l.unlock(); }).join();
      },
      kNotHeld);
}

}  // namespace

TEST(HeldChain, HoldsAThousandMutexes) { hold_a_thousand<qsv::mutex>(); }

TEST(HeldChain, HoldsAThousandTimedMutexes) {
  hold_a_thousand<qsv::timed_mutex>();
}

TEST(HeldChain, HoldsAThousandCohortMutexes) {
  hold_a_thousand<qsv::cohort_mutex>();
}

TEST(HeldChain, HoldsAThousandMcsRowLocks) {
  const auto* e = qsv::catalog::find("mcs");
  ASSERT_NE(e, nullptr);
  std::vector<std::unique_ptr<qsv::catalog::AnyPrimitive>> locks;
  std::vector<qsv::catalog::AnyPrimitive*> ptrs;
  for (std::size_t i = 0; i < kHeld; ++i) {
    locks.push_back(e->make(1));
    ptrs.push_back(locks.back().get());
  }
  hold_all_release_shuffled(std::move(ptrs));
}

TEST(HeldChain, HoldsAThousandClhLocks) { hold_a_thousand<ql::ClhLock>(); }

TEST(HeldChainDeathTest, MutexUnmatchedUnlockAborts) {
  unmatched_unlocks_abort<qsv::mutex>();
}

TEST(HeldChainDeathTest, TimedMutexUnmatchedUnlockAborts) {
  unmatched_unlocks_abort<qsv::timed_mutex>();
}

TEST(HeldChainDeathTest, ClhLockUnmatchedUnlockAborts) {
  unmatched_unlocks_abort<ql::ClhLock>();
}

// ------------------------------------------------------ oversubscription

TEST(FutexMutex, OversubscribedStillCorrect) {
  // More threads than cores is exactly the regime parking exists for.
  ql::FutexMutex m;
  qsv::workload::GuardedCounter counter;
  const std::size_t threads = qsv::test::oversubscribed_crew();
  constexpr std::size_t kOps = 500;
  qsv::harness::ThreadTeam::run(threads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) {
      m.lock();
      counter.bump();
      m.unlock();
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), threads * kOps);
}

// -------------------------------------------------------------- registry

TEST(Catalog, ListsBaselinesAndQsvVariants) {
  // At least the 11 baselines (futex included) + 3 QSV-family
  // exclusive locks; a floor, not an exact count, so one-line
  // registration of a new algorithm stays one-line (catalog_test and
  // CI use the same style). The old per-policy rows ("qsv/yield",
  // "qsv/park") are wait-mode capability bits now, not entries.
  const auto locks = qsv::catalog::locks();
  EXPECT_GE(locks.size(), 14u);
  EXPECT_NE(qsv::catalog::find("mcs"), nullptr);
  EXPECT_NE(qsv::catalog::find("tas"), nullptr);
  EXPECT_EQ(qsv::catalog::find("nonexistent"), nullptr);
}
