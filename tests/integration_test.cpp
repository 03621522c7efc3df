// integration_test.cpp — cross-module scenarios exercising the public
// API the way the examples do: locks + barriers + semaphores + rings
// composed into small applications with checkable global invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "battery.hpp"
#include "core/syncvar.hpp"
#include "catalog/catalog.hpp"
#include "harness/team.hpp"
#include "platform/rng.hpp"
#include "workload/phases.hpp"
#include "workload/ring.hpp"

namespace qc = qsv::core;

TEST(Integration, BankTransfersConserveTotal) {
  // The bank_ledger example's core: per-account QSV mutexes, random
  // transfers with ordered two-lock acquisition, total must be conserved.
  // One thread per allowed CPU: the mutexes spin at the process default.
  constexpr std::size_t kAccounts = 16;
  const std::size_t kTeam = qsv::test::dedicated_crew();
  const std::size_t kTransfers = qsv::test::quota(40000, kTeam);
  std::vector<qc::QsvMutex> locks(kAccounts);
  std::vector<std::int64_t> balance(kAccounts, 1000);

  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    qsv::platform::Xoshiro256 rng(rank + 1);
    for (std::size_t i = 0; i < kTransfers; ++i) {
      auto from = static_cast<std::size_t>(rng.next_below(kAccounts));
      auto to = static_cast<std::size_t>(rng.next_below(kAccounts));
      if (from == to) continue;
      // Deadlock avoidance: acquire in index order.
      const auto lo = std::min(from, to), hi = std::max(from, to);
      locks[lo].lock();
      locks[hi].lock();
      const auto amount = static_cast<std::int64_t>(rng.next_below(50));
      balance[from] -= amount;
      balance[to] += amount;
      locks[hi].unlock();
      locks[lo].unlock();
    }
  });
  const auto total = std::accumulate(balance.begin(), balance.end(),
                                     std::int64_t{0});
  EXPECT_EQ(total, static_cast<std::int64_t>(kAccounts) * 1000);
}

TEST(Integration, JacobiPhasesMatchSerialUnderQsvBarrier) {
  // The jacobi_phases example's core: strip-parallel smoothing with a
  // QSV episode barrier must reproduce the serial result exactly.
  constexpr std::size_t kCells = 512, kPhases = 50, kTeam = 4;
  const qsv::test::CrewPolicy policy(kTeam);
  auto in = qsv::workload::phase_input(kCells);
  const auto expected = qsv::workload::smooth_serial(in, kPhases);

  std::vector<std::int64_t> a = in, b(kCells);
  qc::QsvBarrier barrier(kTeam);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    const std::size_t lo = kCells * rank / kTeam;
    const std::size_t hi = kCells * (rank + 1) / kTeam;
    auto* src = &a;
    auto* dst = &b;
    for (std::size_t p = 0; p < kPhases; ++p) {
      qsv::workload::smooth_strip(*src, *dst, lo, hi);
      barrier.arrive_and_wait(rank);
      std::swap(src, dst);
      // All threads swapped; second barrier keeps phases aligned (no
      // thread may start writing dst while another still reads it).
      barrier.arrive_and_wait(rank);
    }
  });
  EXPECT_EQ((kPhases % 2 == 0 ? a : b), expected);
}

TEST(Integration, PipelineThroughRingsConservesWork) {
  // Two-stage pipeline over BoundedRings driven by QSV semaphores.
  constexpr std::uint64_t kItems = 30000;
  const qsv::test::CrewPolicy policy(3);
  qsv::workload::BoundedRing<std::uint64_t> stage1(32), stage2(32);
  std::atomic<std::uint64_t> sink_sum{0};

  std::thread source([&] {
    for (std::uint64_t i = 1; i <= kItems; ++i) stage1.push(i);
    stage1.push(0);  // poison
  });
  std::thread transform([&] {
    for (;;) {
      const auto v = stage1.pop();
      if (v == 0) {
        stage2.push(0);
        break;
      }
      stage2.push(v * 2);
    }
  });
  std::thread sink([&] {
    for (;;) {
      const auto v = stage2.pop();
      if (v == 0) break;
      sink_sum.fetch_add(v, std::memory_order_relaxed);
    }
  });
  source.join();
  transform.join();
  sink.join();
  EXPECT_EQ(sink_sum.load(), kItems * (kItems + 1));  // 2 * sum(1..N)
}

TEST(Integration, MixedPrimitivesUnderOneRoof) {
  // Readers watch a version guarded by QsvRwLock while writers advance
  // it under a QSV mutex-protected episode count; a barrier closes each
  // round. Checks the primitives do not interfere through shared arenas.
  constexpr std::size_t kTeam = 6, kRounds = 300;
  const qsv::test::CrewPolicy policy(kTeam);
  qc::QsvRwLock<> rw;
  qc::QsvMutex mu;
  qc::QsvBarrier barrier(kTeam);
  std::uint64_t version = 0;  // guarded by rw
  std::uint64_t episodes = 0;  // guarded by mu
  std::atomic<std::uint64_t> torn{0};

  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      if (rank % 2 == 0) {
        rw.lock();
        ++version;
        rw.unlock();
      } else {
        rw.lock_shared();
        const auto v1 = version;
        const auto v2 = version;
        if (v1 != v2) torn.fetch_add(1);
        rw.unlock_shared();
      }
      mu.lock();
      ++episodes;
      mu.unlock();
      barrier.arrive_and_wait(rank);
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(episodes, kTeam * kRounds);
  EXPECT_EQ(version, (kTeam / 2) * kRounds);
}

TEST(Integration, CatalogueAgreesOnSmoke) {
  // Every algorithm in the unified catalogue completes a small workload
  // through the face its capability bits advertise — the "does
  // everything still link and run" canary.
  for (const auto& e : qsv::catalog::all()) {
    auto p = e.make(e.family == qsv::catalog::Family::kBarrier ? 1 : 2);
    // kSimulable and kCheckable live on the catalogue row only (tagged
    // from the simulator's and the chk checker's name lists); the
    // erased handle reports the type-derived bits.
    EXPECT_EQ(p->capabilities(),
              e.caps & ~(qsv::catalog::kSimulable | qsv::catalog::kCheckable))
        << e.name;
    if (e.has(qsv::catalog::kEpisode)) {
      p->arrive_and_wait(0);
    }
    if (e.has(qsv::catalog::kExclusive)) {
      p->lock();
      p->unlock();
    }
    if (e.has(qsv::catalog::kShared)) {
      p->lock_shared();
      p->unlock_shared();
    }
    if (e.has(qsv::catalog::kTry)) {
      EXPECT_TRUE(p->try_lock()) << e.name;
      p->unlock();
    }
    if (e.has(qsv::catalog::kTimed)) {
      EXPECT_TRUE(p->try_lock_for(std::chrono::milliseconds(5))) << e.name;
      p->unlock();
    }
    if (e.has(qsv::catalog::kEventCount)) {
      EXPECT_EQ(p->advance(), 1u) << e.name;
      EXPECT_GE(p->await(1), 1u) << e.name;
    }
  }
  SUCCEED();
}
