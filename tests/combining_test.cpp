// combining_test.cpp — linearizable fetch&add through the combining tree.
// The tree's waits spin whatever the policy, so its crews never
// outnumber the CPUs (battery.hpp's rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "battery.hpp"
#include "combining/combining_tree.hpp"
#include "combining/flat_counter.hpp"
#include "harness/team.hpp"

namespace qc = qsv::combining;

TEST(FlatCounter, SequentialSemantics) {
  qc::FlatCounter c;
  EXPECT_EQ(c.fetch_add(5), 0);
  EXPECT_EQ(c.fetch_add(3), 5);
  EXPECT_EQ(c.read(), 8);
}

TEST(FlatCounter, ConcurrentSum) {
  qc::FlatCounter c;
  qsv::harness::ThreadTeam::run(8, [&](std::size_t) {
    for (int i = 0; i < 10000; ++i) c.fetch_add(1);
  });
  EXPECT_EQ(c.read(), 80000);
}

TEST(CombiningTree, SequentialSemantics) {
  qc::CombiningTree c(8);
  EXPECT_EQ(c.fetch_add(5), 0);
  EXPECT_EQ(c.fetch_add(3), 5);
  EXPECT_EQ(c.fetch_add(1), 8);
  EXPECT_EQ(c.read(), 9);
}

TEST(CombiningTree, ConcurrentSumIsExact) {
  qc::CombiningTree c(qsv::platform::kMaxThreads);
  const std::size_t kTeam = qsv::test::dedicated_crew();
  const std::size_t kOps = qsv::test::quota(160000, kTeam);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) c.fetch_add(1);
  });
  EXPECT_EQ(c.read(), static_cast<std::int64_t>(kOps * kTeam));
}

TEST(CombiningTree, PriorsAreUniqueAndDense) {
  // Linearizability witness for unit increments: the returned priors
  // must be exactly {0, 1, ..., N-1} with no duplicates or gaps.
  qc::CombiningTree c(qsv::platform::kMaxThreads);
  const std::size_t kTeam = qsv::test::dedicated_crew();
  const std::size_t kOps = qsv::test::quota(40000, kTeam);
  std::vector<std::int64_t> priors;
  std::mutex mu;
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    std::vector<std::int64_t> local;
    local.reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) local.push_back(c.fetch_add(1));
    std::lock_guard<std::mutex> g(mu);
    priors.insert(priors.end(), local.begin(), local.end());
  });
  ASSERT_EQ(priors.size(), kOps * kTeam);
  std::sort(priors.begin(), priors.end());
  for (std::size_t i = 0; i < priors.size(); ++i) {
    ASSERT_EQ(priors[i], static_cast<std::int64_t>(i)) << "gap/dup at " << i;
  }
}

TEST(CombiningTree, MixedDeltasConserveSum) {
  qc::CombiningTree c(qsv::platform::kMaxThreads);
  const std::size_t kTeam = qsv::test::dedicated_crew();
  std::atomic<std::int64_t> expected{0};
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t rank) {
    std::int64_t mine = 0;
    for (int i = 1; i <= 2000; ++i) {
      const auto delta = static_cast<std::int64_t>((rank + 1) * (i % 5 + 1));
      c.fetch_add(delta);
      mine += delta;
    }
    expected.fetch_add(mine);
  });
  EXPECT_EQ(c.read(), expected.load());
}

TEST(CombiningTree, TinyCapacityDegeneratesToLatchedCounter) {
  qc::CombiningTree c(1);  // single leaf == root
  const std::size_t kTeam = qsv::test::capped_crew(2);
  qsv::harness::ThreadTeam::run(kTeam, [&](std::size_t) {
    for (int i = 0; i < 5000; ++i) c.fetch_add(1);
  });
  EXPECT_EQ(c.read(), static_cast<std::int64_t>(kTeam) * 5000);
}

TEST(CombiningTree, NodeCountMatchesPerfectTree) {
  qc::CombiningTree c(16);  // 8 leaves -> 15 nodes
  EXPECT_EQ(c.node_count(), 15u);
}
