// striped_rw_test.cpp — the striped reader path: StripedCounter units,
// stress over the parking handshake, phase-fairness regressions, and the
// centralized ablation variant's exclusion battery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "core/qsv_rwlock.hpp"
#include "core/qsv_rwlock_central.hpp"
#include "harness/team.hpp"
#include "platform/backoff.hpp"
#include "platform/striped_counter.hpp"
#include "platform/timing.hpp"
#include "qsv/concepts.hpp"

namespace qc = qsv::core;
namespace qp = qsv::platform;

// ------------------------------------------------------- StripedCounter

TEST(StripedCounter, SlotIsStablePerThread) {
  qp::StripedCounter<8> c;
  auto* first = &c.slot();
  EXPECT_EQ(first, &c.slot());
}

TEST(StripedCounter, AddAndSumSingleThread) {
  qp::StripedCounter<8> c;
  EXPECT_EQ(c.sum(), 0);
  c.add(3);
  c.add(-1);
  EXPECT_EQ(c.sum(), 2);
  c.add(-2);
  EXPECT_EQ(c.sum(), 0);
}

TEST(StripedCounter, SumAggregatesAcrossThreads) {
  qp::StripedCounter<8> c;
  qsv::harness::ThreadTeam::run(6, [&](std::size_t) {
    for (int i = 0; i < 1000; ++i) c.add(1);
  });
  EXPECT_EQ(c.sum(), 6000);
}

TEST(StripedCounter, BalancedTrafficDrainsToZero) {
  qp::StripedCounter<4> c;  // fewer stripes than threads: slots shared
  qsv::harness::ThreadTeam::run(6, [&](std::size_t) {
    for (int i = 0; i < 2000; ++i) {
      c.add(1);
      c.add(-1);
    }
  });
  EXPECT_EQ(c.sum(), 0);
}

TEST(StripedCounter, FootprintCountsPadding) {
  EXPECT_GE(qp::StripedCounter<16>::footprint_bytes(),
            16 * qp::kFalseSharingRange);
  EXPECT_EQ(qp::StripedCounter<16>::stripes(), 16u);
}

// ------------------------------------------------- striped QsvRwLock

TEST(StripedRwLock, SatisfiesSharedLockableConcept) {
  static_assert(qsv::api::shared_mutex_like<qc::QsvRwLock<>>);
  static_assert(
      qsv::api::shared_mutex_like<qc::QsvRwLockCentral>);
  SUCCEED();
}

// The parking handshake is the delicate part of the redesign: readers
// that hit a closed gate must retreat, park on a private node, and be
// admitted as one batch at the phase boundary — never lost, never
// double-counted. Hammer it with a write-heavy mix so nearly every
// reader entry takes the slow path.
TEST(StripedRwLock, ParkingHandshakeStress) {
  qc::QsvRwLock<> lock;
  qsv::test::rw_battery(lock, qsv::test::dedicated_crew(), 2000, 0.5);
}

// Same battery through the futex-parking wait policy: the claim/grant
// two-step must wake sleepers at both transitions.
TEST(StripedRwLock, ParkingHandshakeStressParkWait) {
  qc::QsvRwLock<> lock(qsv::wait_policy::park);
  qsv::test::rw_battery(lock, 6, 1500, 0.7);
}

// Readers on distinct stripes must overlap freely with no writer around.
TEST(StripedRwLock, ConcurrentReadersAllAdmitted) {
  qc::QsvRwLock<> lock;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  qsv::harness::ThreadTeam::run(6, [&](std::size_t) {
    for (int i = 0; i < 200; ++i) {
      lock.lock_shared();
      const int now = concurrent.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      qp::spin_for(20);
      concurrent.fetch_sub(1);
      lock.unlock_shared();
    }
  });
  EXPECT_GE(peak.load(), 1);
}

// Phase-fairness regression, writer side: a continuous stream of readers
// must not starve a writer.
TEST(StripedRwLock, PhaseFairNoWriterStarvation) {
  const qsv::test::CrewPolicy policy(5);  // four readers and the writer
  qc::QsvRwLock<> lock;
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock_shared();
        qp::spin_for(50);
        lock.unlock_shared();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread writer([&] {
    lock.lock();
    writer_done.store(true);
    lock.unlock();
  });
  for (int i = 0; i < 400 && !writer_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(writer_done.load());
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
}

// Phase-fairness regression, reader side: a continuous stream of writers
// must not starve a parked reader — it is admitted at a phase boundary.
TEST(StripedRwLock, PhaseFairNoReaderStarvation) {
  const qsv::test::CrewPolicy policy(4);  // three writers and the reader
  qc::QsvRwLock<> lock;
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < 3; ++i) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock();
        qp::spin_for(50);
        lock.unlock();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread reader([&] {
    lock.lock_shared();
    reader_done.store(true);
    lock.unlock_shared();
  });
  for (int i = 0; i < 400 && !reader_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reader_done.load());
  stop.store(true);
  reader.join();
  for (auto& w : writers) w.join();
}

// More stripes than threads and fewer stripes than threads must both be
// correct (stripe sharing only affects contention, not admission).
TEST(StripedRwLock, CorrectAcrossStripeCounts) {
  {
    qc::QsvRwLock<2> narrow(qsv::wait_policy::spin);
    qsv::test::rw_battery(narrow, qsv::test::dedicated_crew(), 1000, 0.8);
  }
  {
    qc::QsvRwLock<64> wide(qsv::wait_policy::spin);
    wide.lock_shared();
    wide.unlock_shared();
    wide.lock();
    wide.unlock();
    SUCCEED();
  }
}

// -------------------------------------------- centralized ablation lock

TEST(CentralRwLock, ExclusionBattery) {
  qc::QsvRwLockCentral lock;
  qsv::test::rw_battery(lock, qsv::test::dedicated_crew(), 1500, 0.5);
}

TEST(CentralRwLock, UncontendedPaths) {
  qc::QsvRwLockCentral lock;
  lock.lock();
  lock.unlock();
  lock.lock_shared();
  lock.unlock_shared();
  lock.lock();
  lock.unlock();
  SUCCEED();
}
