// std_interop_test.cpp — the facade's std-conformance contract,
// exercised for real: QSV primitives under the standard library's own
// RAII wrappers, deadlock-avoidance algorithm, and condition-variable
// protocol. The static_asserts in include/qsv/*.hpp prove the
// signatures; this suite proves the semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "harness/team.hpp"
#include "qsv/qsv.hpp"

using namespace std::chrono_literals;

// ------------------------------------------------- compile-time contract

static_assert(qsv::api::lockable<qsv::mutex>);
static_assert(qsv::api::timed_lockable<qsv::timed_mutex>);
static_assert(qsv::api::shared_mutex_like<qsv::shared_mutex>);
static_assert(qsv::api::shared_mutex_like<qsv::central_shared_mutex>);
static_assert(qsv::api::episode_barrier<qsv::barrier>);
static_assert(qsv::api::counting_semaphore_like<qsv::counting_semaphore>);

// ------------------------------------------------------ std::scoped_lock

TEST(StdInterop, ScopedLockOverTwoQsvMutexes) {
  // std::scoped_lock's deadlock-avoidance algorithm (std::lock) leans
  // on try_lock. Threads acquire the pair in *opposite* orders; without
  // the avoidance path this deadlocks in milliseconds.
  // Kept deliberately small: on a 1-CPU host every contended handoff
  // of a pure-spin mutex costs a scheduler quantum.
  const qsv::test::CrewPolicy policy(2);
  qsv::mutex a, b;
  long balance_a = 1000, balance_b = 1000;  // guarded by {a, b}
  constexpr int kTransfers = 2000;

  qsv::harness::ThreadTeam::run(2, [&](std::size_t rank) {
    for (int i = 0; i < kTransfers; ++i) {
      if (rank % 2 == 0) {
        std::scoped_lock guard(a, b);
        ++balance_a;
        --balance_b;
      } else {
        std::scoped_lock guard(b, a);
        --balance_a;
        ++balance_b;
      }
    }
  });
  EXPECT_EQ(balance_a + balance_b, 2000);
  EXPECT_EQ(balance_a, 1000);  // one rank up, one rank down
}

TEST(StdInterop, LockGuardAndUniqueLockOverQsvMutex) {
  const qsv::test::CrewPolicy policy(4);
  qsv::mutex mu;
  long counter = 0;
  qsv::harness::ThreadTeam::run(4, [&](std::size_t) {
    for (int i = 0; i < 10000; ++i) {
      if (i % 2 == 0) {
        std::lock_guard<qsv::mutex> guard(mu);
        ++counter;
      } else {
        std::unique_lock<qsv::mutex> guard(mu);
        ++counter;
      }
    }
  });
  EXPECT_EQ(counter, 40000);
}

// ------------------------------------- std::shared_lock / std::unique_lock

TEST(StdInterop, SharedAndUniqueLockOverQsvSharedMutex) {
  const qsv::test::CrewPolicy policy(4);
  qsv::shared_mutex rw;
  std::vector<int> pair{0, 0};
  std::atomic<long> reads{0};

  qsv::harness::ThreadTeam::run(4, [&](std::size_t rank) {
    if (rank == 0) {
      for (int i = 0; i < 2000; ++i) {
        std::unique_lock guard(rw);
        pair[0] = i;
        pair[1] = i;
      }
    } else {
      for (int i = 0; i < 20000; ++i) {
        std::shared_lock guard(rw);
        if (pair[0] != pair[1]) std::abort();  // torn read
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(reads.load(), 3 * 20000);
}

TEST(StdInterop, TryToLockFormsOverQsvSharedMutex) {
  qsv::shared_mutex rw;
  {
    // Uncontended: both try forms must succeed immediately.
    std::unique_lock guard(rw, std::try_to_lock);
    EXPECT_TRUE(guard.owns_lock());
  }
  {
    std::shared_lock guard(rw, std::try_to_lock);
    EXPECT_TRUE(guard.owns_lock());
  }
  // Writer held: try_lock and try_lock_shared must both refuse without
  // blocking.
  rw.lock();
  EXPECT_FALSE(rw.try_lock());
  EXPECT_FALSE(rw.try_lock_shared());
  rw.unlock();
  // Reader held: a second reader enters, a writer attempt refuses.
  rw.lock_shared();
  EXPECT_TRUE(rw.try_lock_shared());
  rw.unlock_shared();
  EXPECT_FALSE(rw.try_lock());
  rw.unlock_shared();
  EXPECT_TRUE(rw.try_lock());
  rw.unlock();
}

TEST(StdInterop, TryFormsOverCentralSharedMutex) {
  qsv::central_shared_mutex rw;
  rw.lock();
  EXPECT_FALSE(rw.try_lock());
  EXPECT_FALSE(rw.try_lock_shared());
  rw.unlock();
  rw.lock_shared();
  EXPECT_TRUE(rw.try_lock_shared());
  EXPECT_FALSE(rw.try_lock());
  rw.unlock_shared();
  rw.unlock_shared();
  EXPECT_TRUE(rw.try_lock());
  rw.unlock();
}

// --------------------------------------------- std::condition_variable_any

TEST(StdInterop, ConditionVariableAnyOverQsvMutex) {
  // A tiny bounded handoff queue driven entirely by the std CV protocol
  // over a QSV mutex (condition_variable_any accepts any BasicLockable).
  const qsv::test::CrewPolicy policy(2);
  qsv::mutex mu;
  std::condition_variable_any cv;
  std::vector<int> queue;  // guarded by mu
  bool done = false;       // guarded by mu
  constexpr int kItems = 5000;
  long consumed_sum = 0;

  std::thread consumer([&] {
    std::unique_lock<qsv::mutex> guard(mu);
    for (;;) {
      cv.wait(guard, [&] { return !queue.empty() || done; });
      while (!queue.empty()) {
        consumed_sum += queue.back();
        queue.pop_back();
      }
      if (done) return;
    }
  });
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) {
      {
        std::lock_guard<qsv::mutex> guard(mu);
        queue.push_back(i);
      }
      cv.notify_one();
    }
    {
      std::lock_guard<qsv::mutex> guard(mu);
      done = true;
    }
    cv.notify_one();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed_sum, static_cast<long>(kItems) * (kItems + 1) / 2);
}

// ----------------------------------------------------- timed_mutex (std)

TEST(StdInterop, TimedMutexTryLock) {
  qsv::timed_mutex mu;
  EXPECT_TRUE(mu.try_lock());
  std::thread contender([&] { EXPECT_FALSE(mu.try_lock()); });
  contender.join();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(StdInterop, TimedMutexTryLockUntil) {
  qsv::timed_mutex mu;
  mu.lock();
  std::thread impatient([&] {
    // A deadline in the past refuses immediately; a short future
    // deadline expires while the holder sleeps.
    EXPECT_FALSE(mu.try_lock_until(std::chrono::steady_clock::now() - 1ms));
    EXPECT_FALSE(mu.try_lock_until(std::chrono::steady_clock::now() + 5ms));
  });
  impatient.join();
  mu.unlock();
  // Free: a deadline-bounded attempt succeeds without waiting it out.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(mu.try_lock_until(t0 + 10s));
  mu.unlock();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(StdInterop, TimedMutexUnderUniqueLockDeferredForms) {
  qsv::timed_mutex mu;
  {
    std::unique_lock<qsv::timed_mutex> guard(mu, 50ms);  // try_lock_for form
    EXPECT_TRUE(guard.owns_lock());
  }
  {
    std::unique_lock<qsv::timed_mutex> guard(
        mu, std::chrono::steady_clock::now() + 50ms);  // try_lock_until form
    EXPECT_TRUE(guard.owns_lock());
  }
}

// -------------------------------------------------- barrier episode sugar

TEST(StdInterop, BarrierArriveAndDropShrinksTeam) {
  // Half the team leaves after phase 1 (std::barrier::arrive_and_drop
  // semantics); the rest must keep synchronizing without stranding.
  constexpr std::size_t kTeam = 4, kPhases = 200;
  const qsv::test::CrewPolicy policy(kTeam);
  qsv::barrier bar(kTeam);
  std::atomic<long> sum{0};
  std::atomic<bool> ragged{false};

  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    sum.fetch_add(1);
    bar.arrive_and_wait(rank);
    if (sum.load() != kTeam) ragged.store(true);
    bar.arrive_and_wait(rank);
    if (rank >= kTeam / 2) {
      bar.arrive_and_drop(rank);
      return;
    }
    for (std::size_t p = 1; p <= kPhases; ++p) {
      sum.fetch_add(1);
      bar.arrive_and_wait(rank);
      const long expect = static_cast<long>(kTeam + (kTeam / 2) * p);
      if (sum.load() != expect) ragged.store(true);
      bar.arrive_and_wait(rank);
    }
  });
  EXPECT_FALSE(ragged.load());
  EXPECT_EQ(bar.team_size(), kTeam / 2);
}

TEST(StdInterop, BarrierDropToZeroAndCloserIsDropper) {
  // The last arrival may itself be a dropper: it must close the episode
  // (waking everyone) even though it enqueued no node.
  constexpr std::size_t kTeam = 3;
  const qsv::test::CrewPolicy policy(kTeam);
  qsv::barrier bar(kTeam);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    if (rank == 0) {
      bar.arrive_and_drop(rank);  // may or may not be the closer
    } else {
      bar.arrive_and_wait(rank);
    }
  });
  EXPECT_EQ(bar.team_size(), kTeam - 1);
}
