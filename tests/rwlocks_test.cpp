// rwlocks_test.cpp — reader-writer baselines: exclusion and preference.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "battery.hpp"
#include "harness/team.hpp"
#include "catalog/catalog.hpp"
#include "catalog/std_adapters.hpp"
#include "rwlocks/central_rw.hpp"

namespace qr = qsv::rwlocks;

namespace {

/// The centralized locks spin whatever the policy: one thread per CPU.
const std::size_t kThreads = qsv::test::dedicated_crew();
const std::size_t kOps = qsv::test::quota(24000, kThreads);

}  // namespace

template <typename L>
class RwLockTest : public ::testing::Test {};

using RwTypes = ::testing::Types<qr::ReaderPrefRwLock, qr::WriterPrefRwLock,
                                 qsv::catalog::StdSharedMutexAdapter>;
TYPED_TEST_SUITE(RwLockTest, RwTypes);

TYPED_TEST(RwLockTest, MostlyReads) {
  TypeParam lock;
  qsv::test::rw_battery(lock, kThreads, kOps, 0.95);
}

TYPED_TEST(RwLockTest, Balanced) {
  TypeParam lock;
  qsv::test::rw_battery(lock, kThreads, kOps, 0.5);
}

TYPED_TEST(RwLockTest, MostlyWrites) {
  TypeParam lock;
  qsv::test::rw_battery(lock, kThreads, kOps, 0.05);
}

TYPED_TEST(RwLockTest, ReadersOverlap) {
  // Two readers must be able to hold the lock simultaneously: reader A
  // holds while reader B acquires from another thread.
  TypeParam lock;
  lock.lock_shared();
  std::atomic<bool> second_reader_in{false};
  std::thread t([&] {
    lock.lock_shared();
    second_reader_in.store(true);
    lock.unlock_shared();
  });
  t.join();  // would deadlock if readers excluded each other
  EXPECT_TRUE(second_reader_in.load());
  lock.unlock_shared();
}

TYPED_TEST(RwLockTest, WriterExcludesReader) {
  TypeParam lock;
  lock.lock();
  std::atomic<bool> reader_in{false};
  std::thread t([&] {
    lock.lock_shared();
    reader_in.store(true);
    lock.unlock_shared();
  });
  // Give the reader a moment; it must still be blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(reader_in.load());
  lock.unlock();
  t.join();
  EXPECT_TRUE(reader_in.load());
}

// --------------------------------------------------- preference behaviour

TEST(ReaderPref, ReadersPassWaitingWriters) {
  // With a reader continuously holding, a writer waits; a newly arriving
  // reader must still be admitted (reader preference).
  qr::ReaderPrefRwLock lock;
  lock.lock_shared();
  std::atomic<bool> writer_in{false}, late_reader_in{false};
  std::thread writer([&] {
    lock.lock();
    writer_in.store(true);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  std::thread late_reader([&] {
    lock.lock_shared();
    late_reader_in.store(true);
    lock.unlock_shared();
  });
  late_reader.join();  // must not block behind the waiting writer
  EXPECT_TRUE(late_reader_in.load());
  lock.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(WriterPref, ReadersDeferToWaitingWriters) {
  qr::WriterPrefRwLock lock;
  lock.lock_shared();
  std::atomic<bool> writer_done{false}, late_reader_in{false};
  std::thread writer([&] {
    lock.lock();
    writer_done.store(true);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread late_reader([&] {
    lock.lock_shared();
    late_reader_in.store(true);
    lock.unlock_shared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Writer is waiting, so the late reader must be blocked behind it.
  EXPECT_FALSE(late_reader_in.load());
  lock.unlock_shared();
  writer.join();
  late_reader.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_TRUE(late_reader_in.load());
}

TEST(Catalog, RwViewListsBaselinesAndSmokes) {
  // At least the 3 baselines + striped and central QSV shared mode (a
  // floor, so new registrations don't break unrelated suites).
  const auto rwlocks = qsv::catalog::rwlocks();
  EXPECT_GE(rwlocks.size(), 5u);
  for (const auto* entry : rwlocks) {
    SCOPED_TRACE(entry->name);
    auto lock = entry->make(4);
    qsv::test::rw_battery(*lock, qsv::test::capped_crew(4), 1000, 0.7);
  }
}
