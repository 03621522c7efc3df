// core_mutex_test.cpp — the QSV exclusive protocol (MCS's list-based
// queue lock). Its FIFO admission is locks_test's QsvMutex.FifoProperty,
// its held chain locks_test's HeldChain suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "core/qsv_mutex.hpp"
#include "obs/hook.hpp"
#include "harness/team.hpp"
#include "platform/rng.hpp"
#include "qsv/concepts.hpp"
#include "workload/critical_section.hpp"

namespace qc = qsv::core;
namespace qp = qsv::platform;

TEST(QsvMutex, SatisfiesLockableConcept) {
  static_assert(qsv::api::basic_lockable<qc::QsvMutex>);
  static_assert(qsv::api::lockable<qc::QsvMutex>);
  SUCCEED();
}

TEST(QsvMutex, UncontendedLockUnlock) {
  qc::QsvMutex m;
  m.lock();
  m.unlock();
  m.lock();
  m.unlock();
  SUCCEED();
}

TEST(QsvMutex, OversubscribedParkWait) {
  // More threads than cores: the park policy must still make progress.
  qc::QsvMutex m(qsv::wait_policy::park);
  qsv::test::exclusion_battery(m, qsv::test::oversubscribed_crew(), 1000);
}

TEST(QsvMutex, TryLockSemantics) {
  qc::QsvMutex m;
  EXPECT_TRUE(m.try_lock());
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(QsvMutex, TryLockContendedNeverBlocks) {
  qc::QsvMutex lock;
  lock.lock();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      if (!lock.try_lock()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 4);
  lock.unlock();
}

TEST(QsvMutex, HoldsMultipleInstancesNonLifo) {
  qc::QsvMutex a, b, c;
  a.lock();
  b.lock();
  c.lock();
  a.unlock();
  c.unlock();
  b.unlock();
  SUCCEED();
}

TEST(QsvMutex, GuardInterop) {
  qc::QsvMutex m;
  {
    std::unique_lock<qc::QsvMutex> g(m);
    EXPECT_FALSE(m.try_lock());
  }
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(QsvMutex, TelemetryClassifiesAcquisitions) {
  qc::QsvMutex m(qsv::wait_policy::spin);
  const qsv::obs::LockRec* rec = m.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  m.lock();
  m.unlock();  // uncontended + free release
  EXPECT_EQ(rec->acquisitions(), 1u);
  EXPECT_EQ(rec->free_releases(), 1u);
  EXPECT_EQ(rec->contended(), 0u);

  // Force a queued acquisition: hold the lock while another thread
  // enqueues.
  m.lock();
  std::thread t([&] {
    m.lock();
    m.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock();  // must hand off to the queued waiter
  t.join();
  EXPECT_EQ(rec->contended(), 1u);
  EXPECT_GE(rec->handoffs(), 1u);
  EXPECT_GT(rec->max_wait_ns(), 0u);
}

TEST(QsvMutex, StressManyLocksManyThreads) {
  // 4 locks x one thread per CPU, random interleaving; global integrity
  // per lock.
  constexpr std::size_t kLocks = 4;
  const std::size_t kTeam = qsv::test::dedicated_crew();
  const std::size_t kOps = qsv::test::quota(24000, kTeam);
  std::vector<qc::QsvMutex> locks(kLocks);
  std::vector<qsv::workload::GuardedCounter> counters(kLocks);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    qp::Xoshiro256 rng(rank + 77);
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto k = static_cast<std::size_t>(rng.next_below(kLocks));
      locks[k].lock();
      counters[k].bump();
      locks[k].unlock();
    }
  });
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kLocks; ++k) {
    EXPECT_TRUE(counters[k].consistent());
    total += counters[k].value();
  }
  EXPECT_EQ(total, kTeam * kOps);
}
