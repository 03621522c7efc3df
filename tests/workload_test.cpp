// workload_test.cpp — workload generators and the bounded ring.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "harness/team.hpp"
#include "platform/affinity.hpp"
#include "platform/timing.hpp"
#include "workload/critical_section.hpp"
#include "workload/phases.hpp"
#include "workload/ring.hpp"
#include "workload/rw_mix.hpp"

namespace qw = qsv::workload;

TEST(BusyWait, ApproximatesRequestedDuration) {
  const auto t0 = qsv::platform::now_ns();
  qw::busy_wait_ns(200'000);  // 200us
  const auto elapsed = qsv::platform::now_ns() - t0;
  EXPECT_GE(elapsed, 200'000u);
  EXPECT_LT(elapsed, 5'000'000u);  // sane upper bound even under load
}

TEST(BusyWait, ZeroReturnsImmediately) {
  const auto t0 = qsv::platform::now_ns();
  qw::busy_wait_ns(0);
  EXPECT_LT(qsv::platform::now_ns() - t0, 100'000u);
}

TEST(GuardedCounter, DetectsUnsynchronizedAccess) {
  // Without a lock, concurrent bumps must (with overwhelming
  // probability) tear the value/shadow pair or lose updates. On one
  // processor the bumps hardly ever interleave mid-update, so the race
  // this test manifests cannot be produced.
  // available_cpus() rather than hardware_concurrency(): the allowed
  // set (taskset/cgroup cpuset) is what bounds real parallelism.
  if (qsv::platform::available_cpus() < 2) {
    GTEST_SKIP() << "needs >= 2 processors to manifest the data race";
  }
  qw::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(8, [&](std::size_t) {
    for (int i = 0; i < 50000; ++i) counter.bump();
  });
  EXPECT_NE(counter.value(), 8u * 50000u);  // lost updates expected
}

TEST(GuardedCounter, CleanWhenSerial) {
  qw::GuardedCounter counter;
  for (int i = 0; i < 1000; ++i) counter.bump();
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), 1000u);
}

TEST(RwMix, RatioIsRespected) {
  qw::RwMix mix(0.8, 42);
  int reads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) reads += mix.next_is_read() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.8, 0.02);
}

TEST(RwMix, DeterministicPerSeed) {
  qw::RwMix a(0.5, 7), b(0.5, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_is_read(), b.next_is_read());
}

TEST(VersionedCells, WriteAdvancesAllCells) {
  qw::VersionedCells cells;
  EXPECT_TRUE(cells.read_consistent());
  cells.write();
  cells.write();
  EXPECT_TRUE(cells.read_consistent());
  EXPECT_EQ(cells.version(), 2u);
}

TEST(Phases, SerialSmootherIsDeterministic) {
  const auto in = qw::phase_input(128);
  const auto a = qw::smooth_serial(in, 10);
  const auto b = qw::smooth_serial(in, 10);
  EXPECT_EQ(a, b);
}

TEST(Phases, StripDecompositionMatchesSerial) {
  const std::size_t n = 256;
  auto v = qw::phase_input(n);
  std::vector<std::int64_t> tmp(n);
  // Two "threads" (executed serially here) over disjoint strips.
  qw::smooth_strip(v, tmp, 0, n / 2);
  qw::smooth_strip(v, tmp, n / 2, n);
  std::vector<std::int64_t> ref(n);
  qw::smooth_strip(v, ref, 0, n);
  EXPECT_EQ(tmp, ref);
}

// ------------------------------------------------------------------ ring

TEST(BoundedRing, FifoSingleThread) {
  qw::BoundedRing<int> ring(4);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  EXPECT_EQ(ring.pop(), 1);
  EXPECT_EQ(ring.pop(), 2);
  EXPECT_EQ(ring.pop(), 3);
}

TEST(BoundedRing, TryPopOnEmpty) {
  qw::BoundedRing<int> ring(2);
  EXPECT_FALSE(ring.try_pop().has_value());
  ring.push(9);
  const auto v = ring.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(BoundedRing, BlocksWhenFull) {
  qw::BoundedRing<int> ring(2);
  ring.push(1);
  ring.push(2);
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    ring.push(3);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(ring.pop(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedRing, SpscTransfersEverythingInOrder) {
  const qsv::test::CrewPolicy policy(2);
  qw::BoundedRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 100000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) ring.push(i);
  });
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(ring.pop(), next++);
  }
  producer.join();
}

TEST(BoundedRing, MpmcConservesItems) {
  constexpr std::size_t kProducers = 3, kConsumers = 3;
  const qsv::test::CrewPolicy policy(kProducers + kConsumers);
  qw::BoundedRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kPerProducer = 20000;
  std::atomic<std::uint64_t> sum_in{0}, sum_out{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i + 1;
        sum_in.fetch_add(v, std::memory_order_relaxed);
        ring.push(v);
      }
    });
  }
  std::atomic<std::uint64_t> consumed{0};
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        if (consumed.fetch_add(1) >= kProducers * kPerProducer) break;
        sum_out.fetch_add(ring.pop(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum_in.load(), sum_out.load());
}
