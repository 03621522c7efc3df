// core_barrier_test.cpp — QSV episode mode (queue-walk barrier).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "battery.hpp"
#include "core/qsv_barrier.hpp"
#include "harness/team.hpp"
#include "qsv/concepts.hpp"

namespace qc = qsv::core;
using qsv::test::phase_integrity;

TEST(QsvBarrier, SatisfiesPhaseBarrierConcept) {
  static_assert(qsv::api::episode_barrier<qc::QsvBarrier>);
  SUCCEED();
}

TEST(QsvBarrier, SingleThreadNeverBlocks) {
  qc::QsvBarrier b(1);
  for (int i = 0; i < 1000; ++i) b.arrive_and_wait();
  SUCCEED();
}


TEST(QsvBarrier, PhaseIntegrityTeam2) {
  phase_integrity<qc::QsvBarrier>(2, 1000);
}
TEST(QsvBarrier, PhaseIntegrityTeam4) {
  phase_integrity<qc::QsvBarrier>(4, 500);
}
TEST(QsvBarrier, PhaseIntegrityTeam7) {
  phase_integrity<qc::QsvBarrier>(7, 300);
}
TEST(QsvBarrier, PhaseIntegrityTeam16) {
  phase_integrity<qc::QsvBarrier>(16, 200);
}

TEST(QsvBarrier, PhaseIntegrityParkWait) {
  phase_integrity<qc::QsvBarrier>(8, 300, qsv::wait_policy::park);
}

TEST(QsvBarrier, CounterConsistencyLongRun) {
  constexpr std::size_t kTeam = 6, kEpisodes = 2000;
  const qsv::test::CrewPolicy policy(kTeam);
  qc::QsvBarrier barrier(kTeam);
  std::atomic<std::uint64_t> counter{0};
  std::atomic<std::uint64_t> failures{0};
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (std::size_t e = 1; e <= kEpisodes; ++e) {
      counter.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait();
      if (counter.load(std::memory_order_relaxed) != kTeam * e) {
        failures.fetch_add(1);
      }
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}

TEST(QsvBarrier, TwoBarriersInterleaved) {
  // Alternating between two independent episode variables must not mix
  // their queues.
  constexpr std::size_t kTeam = 4, kEpisodes = 500;
  const qsv::test::CrewPolicy policy(kTeam);
  qc::QsvBarrier ba(kTeam), bb(kTeam);
  std::atomic<std::uint64_t> a{0}, b{0}, failures{0};
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (std::size_t e = 1; e <= kEpisodes; ++e) {
      a.fetch_add(1);
      ba.arrive_and_wait();
      if (a.load() != kTeam * e) failures.fetch_add(1);
      b.fetch_add(1);
      bb.arrive_and_wait();
      if (b.load() != kTeam * e) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}
