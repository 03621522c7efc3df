// parking_test.cpp — the user-space parking lot, the futex mutex built
// on it, and the LotParkWait policy plugged into the QSV mechanism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "core/syncvar.hpp"
#include "harness/team.hpp"
#include "parking/parking_lot.hpp"
#include "platform/affinity.hpp"
#include "workload/critical_section.hpp"

namespace qp = qsv::parking;

namespace {
/// LotParkWait parks its waiters, so its crews may outnumber the CPUs
/// (battery.hpp's rule).
const std::size_t kThreads = qsv::test::oversubscribed_crew();
}  // namespace

// ----------------------------------------------------------- lot basics

TEST(ParkingLot, PredicateFalseMeansNoPark) {
  auto& lot = qp::ParkingLot::instance();
  int addr = 0;
  EXPECT_FALSE(lot.park(&addr, [] { return false; }));
  EXPECT_EQ(lot.parked_count(&addr), 0u);
}

TEST(ParkingLot, ParkThenUnparkOne) {
  auto& lot = qp::ParkingLot::instance();
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> woke{false};
  std::thread t([&] {
    lot.park(&word, [&] { return word.load() == 0; });
    woke = true;
  });
  // Wait until the thread is actually parked.
  while (lot.parked_count(&word) == 0) std::this_thread::yield();
  EXPECT_FALSE(woke.load());
  word.store(1);
  EXPECT_EQ(lot.unpark_one(&word), 1u);
  t.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(lot.parked_count(&word), 0u);
}

TEST(ParkingLot, UnparkOnEmptyAddressIsZero) {
  auto& lot = qp::ParkingLot::instance();
  int addr = 0;
  EXPECT_EQ(lot.unpark_one(&addr), 0u);
  EXPECT_EQ(lot.unpark_all(&addr), 0u);
}

TEST(ParkingLot, UnparkOneWakesExactlyOne) {
  auto& lot = qp::ParkingLot::instance();
  std::atomic<std::uint32_t> word{0};
  std::atomic<int> woke{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      lot.park(&word, [&] { return word.load() == 0; });
      woke.fetch_add(1);
    });
  }
  while (lot.parked_count(&word) < 4) std::this_thread::yield();
  word.store(1);  // flip the state, then dole out wakes one at a time
  EXPECT_EQ(lot.unpark_one(&word), 1u);
  while (woke.load() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(woke.load(), 1);
  EXPECT_EQ(lot.unpark_all(&word), 3u);
  for (auto& t : ts) t.join();
  EXPECT_EQ(woke.load(), 4);
}

TEST(ParkingLot, DistinctAddressesAreIndependent) {
  auto& lot = qp::ParkingLot::instance();
  std::atomic<std::uint32_t> a{0};
  std::atomic<std::uint32_t> b{0};
  std::atomic<int> woke_a{0};
  std::atomic<int> woke_b{0};
  std::thread ta([&] {
    lot.park(&a, [&] { return a.load() == 0; });
    woke_a = 1;
  });
  std::thread tb([&] {
    lot.park(&b, [&] { return b.load() == 0; });
    woke_b = 1;
  });
  while (lot.parked_count(&a) == 0 || lot.parked_count(&b) == 0) {
    std::this_thread::yield();
  }
  a.store(1);
  lot.unpark_all(&a);
  ta.join();
  EXPECT_EQ(woke_a.load(), 1);
  EXPECT_EQ(woke_b.load(), 0);      // b's waiter untouched
  EXPECT_EQ(lot.parked_count(&b), 1u);
  b.store(1);
  lot.unpark_all(&b);
  tb.join();
}

TEST(ParkingLot, SameBucketCollisionsDoNotCrossWake) {
  // Two addresses that collide in the 256-bucket table must still wake
  // independently. Probe for a colliding pair within one page.
  auto& lot = qp::ParkingLot::instance();
  alignas(64) static std::atomic<std::uint32_t> words[64];
  // All 64 words span 4 lines; many collide. Park on two far-apart ones.
  std::atomic<std::uint32_t>& x = words[0];
  std::atomic<std::uint32_t>& y = words[16];  // same line group likely
  x.store(0);
  y.store(0);
  std::atomic<int> woke_x{0};
  std::thread tx([&] {
    lot.park(&x, [&] { return x.load() == 0; });
    woke_x = 1;
  });
  while (lot.parked_count(&x) == 0) std::this_thread::yield();
  y.store(1);
  lot.unpark_all(&y);  // must not wake x's waiter
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(woke_x.load(), 0);
  x.store(1);
  lot.unpark_all(&x);
  tx.join();
}

TEST(ParkingLot, RapidParkReparkCycles) {
  // A woken thread must be able to re-park instantly (slot fully
  // recycled by the unparker before the signal).
  auto& lot = qp::ParkingLot::instance();
  std::atomic<std::uint32_t> word{0};
  constexpr int kCycles = 2000;
  std::thread waiter([&] {
    for (int i = 0; i < kCycles; ++i) {
      lot.park(&word, [&] { return word.load() == 0; });
      word.store(0);  // re-arm for the next cycle
    }
  });
  for (int i = 0; i < kCycles; ++i) {
    while (lot.parked_count(&word) == 0) std::this_thread::yield();
    word.store(1);
    lot.unpark_one(&word);
  }
  waiter.join();
  SUCCEED();
}

// ---------------------------------------------------------- futex mutex

TEST(FutexMutex, TryLockSemantics) {
  qp::FutexMutex m;
  ASSERT_TRUE(m.try_lock());
  std::thread t([&] { EXPECT_FALSE(m.try_lock()); });
  t.join();
  m.unlock();
  ASSERT_TRUE(m.try_lock());
  m.unlock();
}

TEST(FutexMutex, UncontendedFastPathNeverParks) {
  auto& lot = qp::ParkingLot::instance();
  qp::FutexMutex m;
  for (int i = 0; i < 10000; ++i) {
    m.lock();
    m.unlock();
  }
  EXPECT_EQ(lot.parked_count(&m), 0u);
}

TEST(FutexMutex, OversubscribedStillCorrect) {
  // More threads than cores is exactly the regime parking exists for.
  qp::FutexMutex m;
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

// ------------------------------------------- QSV over the parking lot

TEST(LotParkWait, QsvMutexRunsUnmodifiedOverHandBuiltFutex) {
  qsv::core::QsvMutex<qp::LotParkWait> m;
  qsv::test::exclusion_battery(m, kThreads,
                               qsv::test::quota(24000, kThreads));
}

TEST(LotParkWait, QsvSemaphoreStyleHandoffChain) {
  // Chain handoff through the lot-backed QSV mutex: thread i waits for
  // its predecessor — exercises notify_one delivery through the table.
  qsv::core::QsvMutex<qp::LotParkWait> m;
  std::vector<int> order;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    for (int i = 0; i < 200; ++i) {
      m.lock();
      if (order.size() < kThreads) {
        order.push_back(static_cast<int>(rank));
      }
      m.unlock();
    }
  });
  EXPECT_GE(order.size(), kThreads);  // every thread got through
}
