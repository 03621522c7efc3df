// harness_test.cpp — measurement infrastructure: the thread team and
// the one lock-loop runner (benchreg::run_lock_loop).
#include <gtest/gtest.h>

#include <cstdint>

#include "battery.hpp"
#include "benchreg/kernels.hpp"
#include "catalog/catalog.hpp"
#include "harness/team.hpp"
#include "platform/affinity.hpp"

namespace qh = qsv::harness;

TEST(ThreadTeam, RunsAllRanksExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  qh::ThreadTeam::run(8, [&](std::size_t rank) { hits[rank].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, PropagatesExceptions) {
  EXPECT_THROW(
      qh::ThreadTeam::run(4,
                          [&](std::size_t rank) {
                            if (rank == 2) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

TEST(Runner, ProducesConsistentThroughput) {
  // The duration/throughput bounds assert genuinely-overlapping
  // execution; a single processor serializes the team and the measured
  // window stretches arbitrarily past the configured one.
  // available_cpus() rather than hardware_concurrency(): the allowed
  // set (taskset/cgroup cpuset) is what bounds real parallelism.
  if (qsv::platform::available_cpus() < 2) {
    GTEST_SKIP() << "needs >= 2 processors to overlap the team";
  }
  const std::size_t team = qsv::test::capped_crew(4);
  auto lock = qsv::catalog::find("mcs")->make(team);
  const auto result = qsv::benchreg::run_lock_loop(*lock, team, 0.1);
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.ops, 0u);
  EXPECT_GT(result.throughput_mops(), 0.0);
  EXPECT_EQ(result.per_thread_ops.size(), team);
  std::uint64_t sum = 0;
  for (const std::uint64_t ops : result.per_thread_ops) sum += ops;
  EXPECT_EQ(sum, result.ops);
  EXPECT_NEAR(static_cast<double>(result.dt_ns) * 1e-9, 0.1, 0.15);
}

TEST(Catalogues, IncludeQsvEntries) {
  const auto* qsv_lock = qsv::catalog::find("qsv");
  const auto* qsv_barrier = qsv::catalog::find("qsv-episode");
  const auto* qsv_rw = qsv::catalog::find("qsv-rw");
  ASSERT_NE(qsv_lock, nullptr);
  ASSERT_NE(qsv_barrier, nullptr);
  ASSERT_NE(qsv_rw, nullptr);
  EXPECT_EQ(qsv_lock->family, qsv::catalog::Family::kLock);
  EXPECT_EQ(qsv_barrier->family, qsv::catalog::Family::kBarrier);
  EXPECT_EQ(qsv_rw->family, qsv::catalog::Family::kRwLock);
}

TEST(Catalogues, EveryLockPassesRunnerIntegrity) {
  const std::size_t team = qsv::test::capped_crew(4);
  for (const auto* entry : qsv::catalog::locks()) {
    auto lock = entry->make(team);
    // A short critical section and think time exercise both busy waits.
    const auto result = qsv::benchreg::run_lock_loop(
        *lock, team, 0.04, /*external_watchdog=*/false, /*cs_ns=*/50,
        /*think_ns=*/50);
    EXPECT_TRUE(result.ok) << entry->name;
    EXPECT_GT(result.ops, 0u) << entry->name;
  }
}
