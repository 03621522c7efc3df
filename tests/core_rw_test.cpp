// core_rw_test.cpp — QSV shared mode: batching, fairness, exclusion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "battery.hpp"
#include "core/qsv_rwlock.hpp"
#include "harness/team.hpp"
#include "platform/backoff.hpp"
#include "qsv/concepts.hpp"

namespace qc = qsv::core;

TEST(QsvRwLock, SatisfiesSharedLockableConcept) {
  static_assert(qsv::api::shared_mutex_like<qc::QsvRwLock<>>);
  SUCCEED();
}

TEST(QsvRwLock, UncontendedPaths) {
  qc::QsvRwLock<> lock;
  lock.lock();
  lock.unlock();
  lock.lock_shared();
  lock.unlock_shared();
  lock.lock();
  lock.unlock();
  SUCCEED();
}

TEST(QsvRwLock, ReadersOverlap) {
  qc::QsvRwLock<> lock;
  lock.lock_shared();
  std::atomic<bool> in{false};
  std::thread t([&] {
    lock.lock_shared();
    in.store(true);
    lock.unlock_shared();
  });
  t.join();
  EXPECT_TRUE(in.load());
  lock.unlock_shared();
}

TEST(QsvRwLock, WriterExcludesReadersAndWriters) {
  const qsv::test::CrewPolicy policy(2);  // a reader and a writer wait
  qc::QsvRwLock<> lock;
  lock.lock();
  std::atomic<int> entered{0};
  std::thread r([&] {
    lock.lock_shared();
    entered.fetch_add(1);
    lock.unlock_shared();
  });
  std::thread w([&] {
    lock.lock();
    entered.fetch_add(1);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(entered.load(), 0);
  lock.unlock();
  r.join();
  w.join();
  EXPECT_EQ(entered.load(), 2);
}

TEST(QsvRwLock, InvariantBatteryAcrossRatios) {
  for (double ratio : {0.05, 0.5, 0.95}) {
    SCOPED_TRACE(ratio);
    qc::QsvRwLock<> lock;
    qsv::test::rw_battery(lock, qsv::test::dedicated_crew(), 3000, ratio);
  }
}

TEST(QsvRwLock, PhaseFairnessNoWriterStarvation) {
  // Saturate with readers; a writer must still get in (reader-preference
  // locks fail this under continuous read arrivals).
  const qsv::test::CrewPolicy policy(7);  // six readers and the writer
  qc::QsvRwLock<> lock;
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 6; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock_shared();
        qsv::platform::spin_for(50);
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
  // The writer must complete well within the read storm.
  for (int i = 0; i < 200 && !writer_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(writer_done.load());
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
}

TEST(QsvRwLock, PhaseFairnessNoReaderStarvation) {
  // Saturate with writers; a reader must still get in (writer-preference
  // locks fail this).
  const qsv::test::CrewPolicy policy(5);  // four writers and the reader
  qc::QsvRwLock<> lock;
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock();
        qsv::platform::spin_for(50);
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
  for (int i = 0; i < 200 && !reader_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reader_done.load());
  stop.store(true);
  reader.join();
  for (auto& w : writers) w.join();
}

TEST(QsvRwLock, WritersAreFifo) {
  // Writer tickets serve in order: admission sequence must match ticket
  // order (bounded displacement as in the mutex FIFO test).
  qc::QsvRwLock<> lock;
  constexpr std::size_t kRounds = 400;
  const std::size_t kTeam = qsv::test::capped_crew(4);
  std::atomic<std::uint64_t> dispenser{0};
  std::vector<std::uint64_t> admitted;
  admitted.reserve(kTeam * kRounds);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const auto seq = dispenser.fetch_add(1);
      lock.lock();
      admitted.push_back(seq);
      lock.unlock();
    }
  });
  std::size_t violations = 0;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const auto d = admitted[i] > i ? admitted[i] - i : i - admitted[i];
    if (d > 64) ++violations;
  }
  EXPECT_LE(violations, admitted.size() / 200);
}
