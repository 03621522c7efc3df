// hier_test.cpp — correctness and protocol-shape tests for the
// hierarchical (cohort) QSV mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "harness/team.hpp"
#include "hier/cohort_map.hpp"
#include "hier/hier_qsv.hpp"
#include "obs/hook.hpp"
#include "platform/affinity.hpp"
#include "platform/wait.hpp"
#include "workload/critical_section.hpp"

namespace qh = qsv::hier;

namespace {

/// One thread per allowed CPU: the fused lock's waiters spin at the
/// process-default policy (battery.hpp's rule).
const std::size_t kThreads = qsv::test::dedicated_crew();
const std::size_t kOpsPerThread = qsv::test::quota(16000, kThreads);

}  // namespace

// -------------------------------------------------------------- cohorts

TEST(BlockCohortMap, GroupsConsecutiveIndices) {
  qh::BlockCohortMap map(4);
  EXPECT_EQ(map.cohort_of(0), 0u);
  EXPECT_EQ(map.cohort_of(3), 0u);
  EXPECT_EQ(map.cohort_of(4), 1u);
  EXPECT_EQ(map.cohort_of(7), 1u);
  EXPECT_EQ(map.cohort_of(8), 2u);
}

TEST(BlockCohortMap, BlockOfOneIsolatesEveryThread) {
  qh::BlockCohortMap map(1);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(map.cohort_of(i), i);
}

TEST(BlockCohortMap, CohortCountCoversAllThreads) {
  qh::BlockCohortMap map(4);
  EXPECT_EQ(map.cohort_count(8), 2u);
  EXPECT_EQ(map.cohort_count(9), 3u);   // ragged tail still has a cohort
  EXPECT_EQ(map.cohort_count(1), 1u);
  // Every index below the bound maps inside the table.
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_LT(map.cohort_of(i), map.cohort_count(9));
  }
}

TEST(BlockCohortMapDeathTest, ZeroBlockAbortsDeterministically) {
  // A zero block would make every cohort_of a divide-by-zero; release
  // builds must abort with a diagnostic, not fall into UB (the
  // HeldMap/node-layer precedent).
  EXPECT_DEATH(qh::BlockCohortMap{0}, "cohort block must be at least 1");
}

TEST(BlockCohortMap, MyCohortUsesDenseThreadIndex) {
  qh::BlockCohortMap map(1024);  // everything in cohort 0 regardless of id
  std::atomic<bool> ok{true};
  qsv::harness::ThreadTeam::run(4, [&](std::size_t) {
    if (map.my_cohort() != 0) ok = false;
  });
  EXPECT_TRUE(ok);
}

// ----------------------------------------------------------- exclusion

TEST(HierQsvMutex, MutualExclusionSingleThreadCohorts) {
  qh::HierQsvMutex lock(/*threads_per_cohort=*/1, /*budget=*/16);
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

TEST(HierQsvMutex, MutualExclusionOneBigCohort) {
  qh::HierQsvMutex lock(/*threads_per_cohort=*/1024, /*budget=*/8);
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

TEST(HierQsvMutex, MutualExclusionZeroBudget) {
  // Budget 0: every release returns the global lock — the ablation
  // control that degenerates to flat QSV plus one hop.
  qh::HierQsvMutex lock(/*threads_per_cohort=*/4, /*budget=*/0);
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

// ------------------------------------------------------------ reentry

TEST(HierQsvMutex, UncontendedAcquireReleaseRepeats) {
  qh::HierQsvMutex lock;
  for (int i = 0; i < 10000; ++i) {
    lock.lock();
    lock.unlock();
  }
  SUCCEED();
}

TEST(HierQsvMutex, TwoInstancesAreIndependent) {
  qh::HierQsvMutex a;
  qh::HierQsvMutex b;
  a.lock();
  b.lock();  // must not deadlock or cross-talk
  b.unlock();
  a.unlock();
  SUCCEED();
}

// ------------------------------------------------------------ try_lock

TEST(HierQsvMutex, TryLockSucceedsWhenFree) {
  qh::HierQsvMutex lock;
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(HierQsvMutex, TryLockFailsWhenHeld) {
  qh::HierQsvMutex lock;
  lock.lock();
  std::atomic<int> result{-1};
  std::thread t([&] { result = lock.try_lock() ? 1 : 0; });
  t.join();
  EXPECT_EQ(result.load(), 0);
  lock.unlock();
}

TEST(HierQsvMutex, TryLockFailureLeavesLockUsable) {
  qh::HierQsvMutex lock;
  lock.lock();
  std::thread t([&] { EXPECT_FALSE(lock.try_lock()); });
  t.join();
  lock.unlock();
  // Failed try_lock must have fully undone its enqueue.
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

TEST(HierQsvMutex, TryLockUnderContentionNeverBlocksForever) {
  qh::HierQsvMutex lock;
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> failures{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      if (lock.try_lock()) {
        successes.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
      } else {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(successes + failures, kThreads * kOpsPerThread);
  EXPECT_GT(successes.load(), 0u);
}

// ------------------------------------------------------- pass semantics

TEST(HierQsvMutex, BudgetBoundsConsecutiveLocalPasses) {
  constexpr std::size_t kBudget = 4;
  // One big cohort: all handoffs are intra-cohort candidates.
  qh::HierQsvMutex lock(1024, kBudget, qsv::wait_policy::spin);
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      lock.lock();
      counter.bump();
      lock.unlock();
    }
  });
  EXPECT_TRUE(counter.consistent());
  const auto passes = rec->local_passes();
  const auto acquires = rec->global_acquires();
  ASSERT_GT(acquires, 0u);
  // Each global tenure admits at most kBudget passes.
  EXPECT_LE(passes, acquires * kBudget);
}

TEST(HierQsvMutex, ZeroBudgetNeverPassesLocally) {
  qh::HierQsvMutex lock(1024, 0, qsv::wait_policy::spin);
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < 500; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  EXPECT_EQ(rec->local_passes(), 0u);
}

TEST(HierQsvMutex, GlobalAcquiresBalanceReleases) {
  qh::HierQsvMutex lock(4, 8, qsv::wait_policy::spin);
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < 500; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  EXPECT_EQ(rec->global_acquires(), rec->global_releases());
}

TEST(HierQsvMutex, LargeBudgetPassesDominate) {
  // A local pass needs a cohort-mate already queued at unlock time; on
  // one processor the queue is usually empty (threads run to
  // completion of their quantum), so passes cannot dominate.
  // available_cpus() rather than hardware_concurrency(): the allowed
  // set (taskset/cgroup cpuset) is what bounds real parallelism.
  if (qsv::platform::available_cpus() < 2) {
    GTEST_SKIP() << "needs >= 2 processors to keep the cohort queue busy";
  }
  qh::HierQsvMutex lock(1024, 1u << 20, qsv::wait_policy::spin);
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      lock.lock();
      counter.bump();
      lock.unlock();
    }
  });
  EXPECT_TRUE(counter.consistent());
  // With an effectively unlimited budget every *contended* handoff stays
  // inside the cohort; the global word is re-acquired only when the local
  // queue momentarily drains. How often that happens depends on scheduling
  // timing, so assert the robust direction only: passes dominate global
  // round trips.
  EXPECT_GT(rec->local_passes(), rec->global_acquires());
}

// ----------------------------------------------------------- accounting

TEST(HierQsvMutex, FootprintIncludesCohortTable) {
  qh::HierQsvMutex small(64);  // few cohorts
  qh::HierQsvMutex large(1);   // one cohort per thread slot
  EXPECT_GT(large.footprint_bytes(), small.footprint_bytes());
  EXPECT_GE(small.footprint_bytes(), qsv::platform::kFalseSharingRange);
}

TEST(HierQsvMutex, ReportsConfiguration) {
  qh::HierQsvMutex lock(4, 16);
  EXPECT_EQ(lock.threads_per_cohort(), 4u);
  EXPECT_EQ(lock.budget(), 16u);
  EXPECT_STREQ(qh::HierQsvMutex::name(), "hier-qsv");
}
