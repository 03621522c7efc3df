// core_sugar_test.cpp — the convenience layers: semaphore and condvar.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "core/condvar.hpp"
#include "core/qsv_mutex.hpp"
#include "core/semaphore.hpp"
#include "harness/team.hpp"

namespace qc = qsv::core;
using namespace std::chrono_literals;

// ------------------------------------------------------------- semaphore

TEST(QsvSemaphore, InitialPermits) {
  qc::QsvSemaphore sem(2);
  EXPECT_EQ(sem.available(), 2);
  sem.acquire();
  sem.acquire();
  EXPECT_EQ(sem.available(), 0);
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  sem.release(2);
}

TEST(QsvSemaphore, BlocksUntilRelease) {
  qc::QsvSemaphore sem(0);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    sem.acquire();
    acquired.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(acquired.load());
  sem.release();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(QsvSemaphore, BoundsConcurrencyExactly) {
  // With k permits, at most k threads may be inside simultaneously.
  constexpr std::int64_t kPermits = 3;
  constexpr std::size_t kTeam = 8;
  const qsv::test::CrewPolicy policy(kTeam);
  qc::QsvSemaphore sem(kPermits);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::atomic<std::uint64_t> violations{0};
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (int i = 0; i < 2000; ++i) {
      sem.acquire();
      const int now = inside.fetch_add(1) + 1;
      if (now > kPermits) violations.fetch_add(1);
      int expect = peak.load();
      while (now > expect && !peak.compare_exchange_weak(expect, now)) {
      }
      // Hold the permit across a scheduling point so holders actually
      // overlap even on a single-processor host.
      if ((i & 0x1f) == 0) std::this_thread::yield();
      inside.fetch_sub(1);
      sem.release();
    }
  });
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_LE(peak.load(), kPermits);
  EXPECT_GE(peak.load(), 2);  // concurrency was actually exercised
  EXPECT_EQ(sem.available(), kPermits);
}

TEST(QsvSemaphore, BulkRelease) {
  const qsv::test::CrewPolicy policy(4);
  qc::QsvSemaphore sem(0);
  std::atomic<int> through{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      sem.acquire();
      through.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(through.load(), 0);
  sem.release(4);
  for (auto& t : threads) t.join();
  EXPECT_EQ(through.load(), 4);
}

// --------------------------------------------------------------- condvar

TEST(QsvCondVar, SignalWakesWaiter) {
  qc::QsvMutex m;
  qc::QsvCondVar cv;
  bool ready = false;
  std::atomic<bool> observed{false};
  std::thread waiter([&] {
    m.lock();
    cv.wait(m, [&] { return ready; });
    observed.store(true);
    m.unlock();
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(observed.load());
  m.lock();
  ready = true;
  m.unlock();
  cv.notify_all();
  waiter.join();
  EXPECT_TRUE(observed.load());
}

TEST(QsvCondVar, NotifyAllWakesEveryone) {
  const qsv::test::CrewPolicy policy(7);  // six waiters and the notifier
  qc::QsvMutex m;
  qc::QsvCondVar cv;
  bool go = false;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 6; ++i) {
    waiters.emplace_back([&] {
      m.lock();
      cv.wait(m, [&] { return go; });
      woke.fetch_add(1);
      m.unlock();
    });
  }
  std::this_thread::sleep_for(20ms);
  m.lock();
  go = true;
  m.unlock();
  cv.notify_all();
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), 6);
}

TEST(QsvCondVar, ProducerConsumerHandshake) {
  const qsv::test::CrewPolicy policy(2);
  qc::QsvMutex m;
  qc::QsvCondVar cv_full, cv_empty;
  int slot = 0;       // 0 = empty
  long consumed = 0;  // guarded by m
  constexpr int kItems = 2000;

  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) {
      m.lock();
      cv_empty.wait(m, [&] { return slot == 0; });
      slot = i;
      m.unlock();
      cv_full.notify_one();
    }
  });
  std::thread consumer([&] {
    for (int i = 1; i <= kItems; ++i) {
      m.lock();
      cv_full.wait(m, [&] { return slot != 0; });
      EXPECT_EQ(slot, i);
      consumed += slot;
      slot = 0;
      m.unlock();
      cv_empty.notify_one();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed, static_cast<long>(kItems) * (kItems + 1) / 2);
}
