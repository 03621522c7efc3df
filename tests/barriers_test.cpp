// barriers_test.cpp — correctness and property tests for episode
// synchronization. The core property battery: after barrier episode k,
// every thread must observe every other thread's phase-k writes (phase
// integrity), across many episodes and team sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/std_adapters.hpp"
#include "barriers/central.hpp"
#include "barriers/combining_tree.hpp"
#include "barriers/dissemination.hpp"
#include "barriers/mcs_tree.hpp"
#include "barriers/tournament.hpp"
#include "battery.hpp"
#include "harness/team.hpp"

namespace qb = qsv::barriers;
using qsv::test::phase_integrity;

// --------------------------------------------------- typed battery sweep

template <typename B>
class BarrierTest : public ::testing::Test {};

using BarrierTypes =
    ::testing::Types<qb::CentralBarrier, qb::CombiningTreeBarrier<>,
                     qb::TournamentBarrier, qb::DisseminationBarrier,
                     qb::McsTreeBarrier, qsv::catalog::StdBarrierAdapter>;
TYPED_TEST_SUITE(BarrierTest, BarrierTypes);

TYPED_TEST(BarrierTest, SingleThreadNeverBlocks) {
  TypeParam b(1);
  for (int i = 0; i < 100; ++i) b.arrive_and_wait(0);
  SUCCEED();
}

TYPED_TEST(BarrierTest, PhaseIntegrityTeam2) { phase_integrity<TypeParam>(2, 500); }
TYPED_TEST(BarrierTest, PhaseIntegrityTeam4) { phase_integrity<TypeParam>(4, 500); }
TYPED_TEST(BarrierTest, PhaseIntegrityTeam7) {
  // Non-power-of-two team exercises partial tree/tournament structure.
  phase_integrity<TypeParam>(7, 300);
}
TYPED_TEST(BarrierTest, PhaseIntegrityTeam16) {
  phase_integrity<TypeParam>(16, 200);
}

TYPED_TEST(BarrierTest, ReportsTeamSize) {
  TypeParam b(5);
  EXPECT_EQ(b.team_size(), 5u);
}

// ------------------------------------------------------ algorithm details

TEST(Dissemination, RoundCountIsCeilLog2) {
  qb::DisseminationBarrier b2(2), b5(5), b8(8), b9(9);
  EXPECT_EQ(b2.rounds(), 1u);
  EXPECT_EQ(b5.rounds(), 3u);
  EXPECT_EQ(b8.rounds(), 3u);
  EXPECT_EQ(b9.rounds(), 4u);
}

TEST(Tournament, RoundCountIsCeilLog2) {
  qb::TournamentBarrier b2(2), b6(6);
  EXPECT_EQ(b2.rounds(), 1u);
  EXPECT_EQ(b6.rounds(), 3u);
}

TEST(CombiningTree, NodeCountShrinksPerLevel) {
  qb::CombiningTreeBarrier<> b(16);
  // 16 leaves-participants -> 4 + 1 nodes with fan-in 4.
  EXPECT_EQ(b.node_count(), 5u);
}

TEST(CentralBarrier, ManyEpisodesSequentialConsistencyCheck) {
  // Counter incremented once per thread per episode; after each episode
  // everyone must read exactly team*episode.
  constexpr std::size_t kTeam = 4, kEpisodes = 1000;
  const qsv::test::CrewPolicy policy(kTeam);
  qb::CentralBarrier barrier(kTeam);
  std::atomic<std::uint64_t> counter{0};
  std::atomic<std::uint64_t> failures{0};
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    for (std::size_t e = 1; e <= kEpisodes; ++e) {
      counter.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait(rank);
      if (counter.load(std::memory_order_relaxed) != kTeam * e) {
        failures.fetch_add(1);
      }
      barrier.arrive_and_wait(rank);
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}

// -------------------------------------------------------------- registry

TEST(Catalog, BarrierViewListsAllBaselines) {
  // At least the 6 baselines + the QSV episode barrier (a floor, so
  // new registrations don't break unrelated suites; the park variant
  // is a wait-mode bit now, not a second entry).
  EXPECT_GE(qsv::catalog::barriers().size(), 7u);
  EXPECT_NE(qsv::catalog::find("dissemination"), nullptr);
  EXPECT_EQ(qsv::catalog::find("bogus"), nullptr);
}

TEST(Catalog, EveryBarrierEntryPassesSmokeIntegrity) {
  const qsv::test::CrewPolicy policy(4);
  for (const auto* entry : qsv::catalog::barriers()) {
    auto barrier = entry->make(4);
    std::atomic<std::uint64_t> counter{0};
    std::atomic<std::uint64_t> failures{0};
    qsv::harness::ThreadTeam::run(4, [&](std::size_t rank) {
      for (std::size_t e = 1; e <= 200; ++e) {
        counter.fetch_add(1);
        barrier->arrive_and_wait(rank);
        if (counter.load() != 4 * e) failures.fetch_add(1);
        barrier->arrive_and_wait(rank);
      }
    });
    EXPECT_EQ(failures.load(), 0u) << entry->name;
  }
}

// -------------------------------------------------- park-wait variants

TEST(CentralBarrier, ParkWaitVariant) {
  phase_integrity<qb::CentralBarrier>(4, 300, qsv::wait_policy::park);
}

TEST(CombiningTree, ParkWaitVariant) {
  phase_integrity<qb::CombiningTreeBarrier<>>(4, 300,
                                            qsv::wait_policy::park);
}

TEST(McsTree, ParkWaitVariant) {
  phase_integrity<qb::McsTreeBarrier>(4, 300, qsv::wait_policy::park);
}
