// hier_test.cpp — the block cohort map, and correctness and
// protocol-shape tests for the QSV×QSV cohort composition over it (the
// catalogue's hier-qsv row).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>

#include "battery.hpp"
#include "core/qsv_mutex.hpp"
#include "harness/team.hpp"
#include "hier/cohort_lock.hpp"
#include "hier/cohort_map.hpp"
#include "obs/hook.hpp"
#include "platform/affinity.hpp"
#include "workload/critical_section.hpp"

namespace qh = qsv::hier;

namespace {

/// One thread per allowed CPU: the composition's waiters spin at the
/// process-default policy (battery.hpp's rule).
const std::size_t kThreads = qsv::test::dedicated_crew();
const std::size_t kOpsPerThread = qsv::test::quota(16000, kThreads);

/// hier-qsv: QSV global and local tiers, `block` threads per cohort.
class HierQsv : public qh::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex,
                                      qh::BlockCohortMap> {
 public:
  explicit HierQsv(std::size_t block = 4, std::size_t budget = 16,
                   qsv::wait_policy policy = qsv::get_default_wait_policy())
      : CohortLock(budget, policy, qh::BlockCohortMap(block)) {}
};

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
  // builds must abort with a diagnostic, not fall into UB (the node
  // layer's precedent).
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

TEST(HierQsv, MutualExclusionSingleThreadCohorts) {
  HierQsv lock(/*block=*/1, /*budget=*/16);
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

TEST(HierQsv, MutualExclusionOneBigCohort) {
  HierQsv lock(/*block=*/1024, /*budget=*/8);
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

// ------------------------------------------------------------ try_lock

TEST(HierQsv, TryLockFailureLeavesLockUsable) {
  HierQsv lock;
  lock.lock();
  std::thread t([&] { EXPECT_FALSE(lock.try_lock()); });
  t.join();
  lock.unlock();
  // A failed try_lock must have fully backed out of both tiers.
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
  qsv::test::exclusion_battery(lock, kThreads, kOpsPerThread);
}

TEST(HierQsv, TryLockUnderContentionNeverBlocksForever) {
  HierQsv lock;
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

TEST(HierQsv, LargeBudgetPassesDominate) {
  // A local pass needs a cohort-mate already committed at unlock time;
  // on one processor the local queue is usually empty (threads run to
  // completion of their quantum), so passes cannot dominate.
  // available_cpus() rather than hardware_concurrency(): the allowed
  // set (taskset/cgroup cpuset) is what bounds real parallelism.
  if (qsv::platform::available_cpus() < 2) {
    GTEST_SKIP() << "needs >= 2 processors to keep the cohort queue busy";
  }
  HierQsv lock(1024, 1u << 20, qsv::wait_policy::spin);
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
  // With an effectively unlimited budget every handoff to a committed
  // cohort-mate stays inside the cohort; the global lock is re-acquired
  // only when the cohort momentarily drains. How often that happens
  // depends on scheduling timing, so assert the robust direction only:
  // passes dominate global round trips.
  EXPECT_GT(rec->local_passes(), rec->global_acquires());
}

// ----------------------------------------------------------- accounting

TEST(HierQsv, FootprintGrowsWithCohortsUsed) {
  HierQsv narrow(1);  // one cohort per thread slot
  const std::size_t unused = narrow.footprint_bytes();
  EXPECT_GE(unused, sizeof(qsv::core::QsvMutex));
  narrow.lock();
  narrow.unlock();
  const std::size_t one = narrow.footprint_bytes();
  EXPECT_GT(one, unused);  // the calling thread's cohort was built
  std::thread([&] {
    narrow.lock();
    narrow.unlock();
  }).join();
  // Another thread index is another cohort of one: one more slab.
  EXPECT_EQ(narrow.footprint_bytes() - one, one - unused);
}
