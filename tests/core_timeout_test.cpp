// core_timeout_test.cpp — QSV bounded-impatience mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "core/qsv_timeout.hpp"
#include "harness/team.hpp"
#include "platform/rng.hpp"
#include "workload/critical_section.hpp"

namespace qc = qsv::core;
using namespace std::chrono_literals;

TEST(QsvTimeoutMutex, UncontendedLockUnlock) {
  qc::QsvTimeoutMutex m;
  m.lock();
  m.unlock();
  EXPECT_TRUE(m.try_lock_for(1ms));
  m.unlock();
}

TEST(QsvTimeoutMutex, TimesOutWhileHeld) {
  qc::QsvTimeoutMutex m;
  m.lock();
  std::atomic<bool> timed_out{false};
  std::thread t([&] { timed_out.store(!m.try_lock_for(5ms)); });
  t.join();
  EXPECT_TRUE(timed_out.load());
  m.unlock();
  // Lock must be acquirable again after the abandonment.
  EXPECT_TRUE(m.try_lock_for(100ms));
  m.unlock();
}

TEST(QsvTimeoutMutex, SucceedsWithinDeadline) {
  qc::QsvTimeoutMutex m;
  m.lock();
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    if (m.try_lock_for(500ms)) {
      acquired.store(true);
      m.unlock();
    }
  });
  std::this_thread::sleep_for(10ms);
  m.unlock();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(QsvTimeoutMutex, MutualExclusionNoTimeouts) {
  qc::QsvTimeoutMutex m;
  const std::size_t team = qsv::test::dedicated_crew();
  qsv::test::exclusion_battery(m, team, qsv::test::quota(32000, team));
}

TEST(QsvTimeoutMutex, MutualExclusionUnderAbortStorm) {
  // Mixed population: some acquisitions use tiny timeouts and often
  // abort; the counter must stay consistent and equal the successful
  // acquisition count. One thread per allowed CPU: the patient half
  // spins at the process-default policy (battery.hpp's rule).
  qc::QsvTimeoutMutex m;
  qsv::workload::GuardedCounter counter;
  std::atomic<std::uint64_t> successes{0};
  const std::size_t kTeam = qsv::test::dedicated_crew();
  const std::size_t kOps = qsv::test::quota(24000, kTeam);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    qsv::platform::Xoshiro256 rng(rank * 13 + 1);
    for (std::size_t i = 0; i < kOps; ++i) {
      const bool impatient = rng.next_bool(0.5);
      if (impatient) {
        if (m.try_lock_for(std::chrono::nanoseconds(rng.next_below(2000)))) {
          counter.bump();
          successes.fetch_add(1, std::memory_order_relaxed);
          m.unlock();
        }
      } else {
        m.lock();
        counter.bump();
        successes.fetch_add(1, std::memory_order_relaxed);
        m.unlock();
      }
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), successes.load());
  // Patient acquisitions always succeed, so at least half completed.
  EXPECT_GE(successes.load(), kTeam * kOps / 2);
}

TEST(QsvTimeoutMutex, AbandonedChainIsSkipped) {
  // Build a chain holder <- aborted <- aborted, then verify a patient
  // waiter still gets through after the holder releases.
  qc::QsvTimeoutMutex m;
  m.lock();
  std::thread a([&] { EXPECT_FALSE(m.try_lock_for(2ms)); });
  a.join();
  std::thread b([&] { EXPECT_FALSE(m.try_lock_for(2ms)); });
  b.join();
  std::atomic<bool> acquired{false};
  std::thread c([&] {
    m.lock();
    acquired.store(true);
    m.unlock();
  });
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(acquired.load());
  m.unlock();
  c.join();
  EXPECT_TRUE(acquired.load());
}

TEST(QsvTimeoutMutex, ZeroTimeoutActsAsTryLock) {
  qc::QsvTimeoutMutex m;
  m.lock();
  EXPECT_FALSE(m.try_lock_for(0ns));
  m.unlock();
  EXPECT_TRUE(m.try_lock_for(0ns + 1ms));
  m.unlock();
}

TEST(QsvTimeoutMutex, ManyInstancesIndependent) {
  qc::QsvTimeoutMutex a, b;
  a.lock();
  EXPECT_TRUE(b.try_lock_for(1ms));
  b.unlock();
  a.unlock();
}
