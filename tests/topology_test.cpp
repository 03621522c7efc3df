// topology_test.cpp — sysfs topology discovery (fixture trees through
// the injectable root) and the generic cohort combinator built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "catalog/catalog.hpp"
#include "core/qsv_mutex.hpp"
#include "harness/team.hpp"
#include "hier/cohort_lock.hpp"
#include "hier/cohort_map.hpp"
#include "locks/ticket.hpp"
#include "obs/hook.hpp"
#include "obs/registry.hpp"
#include "platform/topology.hpp"
#include "workload/critical_section.hpp"

namespace qp = qsv::platform;
namespace qh = qsv::hier;
namespace fs = std::filesystem;

namespace {

/// A disposable sysfs tree under the gtest temp dir. Files are written
/// with a trailing newline, as the kernel does.
class FixtureSysfs {
 public:
  explicit FixtureSysfs(const std::string& name)
      : root_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~FixtureSysfs() { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content << "\n";
  }

  void add_node(int id, const std::string& cpulist) {
    write("devices/system/node/node" + std::to_string(id) + "/cpulist",
          cpulist);
  }
  void add_cpu(int id, int package) {
    write("devices/system/cpu/cpu" + std::to_string(id) +
              "/topology/physical_package_id",
          std::to_string(package));
  }

  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

}  // namespace

// ------------------------------------------------------------ cpulist

TEST(ParseCpulist, SinglesRangesAndMixes) {
  EXPECT_EQ(qp::parse_cpulist("0"), (std::vector<int>{0}));
  EXPECT_EQ(qp::parse_cpulist("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(qp::parse_cpulist("0-1,4,6-7"),
            (std::vector<int>{0, 1, 4, 6, 7}));
  EXPECT_EQ(qp::parse_cpulist(" 2 , 5-6 "), (std::vector<int>{2, 5, 6}));
}

TEST(ParseCpulist, DeduplicatesAndSorts) {
  EXPECT_EQ(qp::parse_cpulist("3,1,1-2"), (std::vector<int>{1, 2, 3}));
}

TEST(ParseCpulist, MalformedFragmentsAreDroppedNotRepaired) {
  EXPECT_TRUE(qp::parse_cpulist("").empty());
  EXPECT_TRUE(qp::parse_cpulist("x").empty());
  EXPECT_TRUE(qp::parse_cpulist("3-").empty());
  EXPECT_TRUE(qp::parse_cpulist("-3").empty());
  EXPECT_TRUE(qp::parse_cpulist("7-2").empty());     // inverted range
  EXPECT_EQ(qp::parse_cpulist("0-1,bogus,4"),        // salvage the valid parts
            (std::vector<int>{0, 1, 4}));
  // Ids beyond kMaxCpuId are garbage, not a request for a huge table.
  EXPECT_TRUE(qp::parse_cpulist("0-2000000000").empty());
  EXPECT_TRUE(qp::parse_cpulist("99999").empty());
  EXPECT_EQ(qp::parse_cpulist(std::to_string(qp::kMaxCpuId)),
            (std::vector<int>{qp::kMaxCpuId}));
}

// ---------------------------------------------------------- discovery

TEST(DiscoverTopology, MultiNodeTree) {
  FixtureSysfs fx("topo_multi");
  fx.add_node(0, "0-3");
  fx.add_node(1, "4-7");
  for (int c = 0; c < 4; ++c) fx.add_cpu(c, 0);
  for (int c = 4; c < 8; ++c) fx.add_cpu(c, 1);

  const auto topo = qp::discover_topology(fx.root());
  EXPECT_FALSE(topo.is_fallback());
  ASSERT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.package_count(), 2u);
  EXPECT_EQ(topo.cpu_count(), 8u);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(topo.node_of_cpu(2), 0u);
  EXPECT_EQ(topo.node_of_cpu(5), 1u);
  // Unknown cpus map to node 0 rather than out of range.
  EXPECT_EQ(topo.node_of_cpu(64), 0u);
  EXPECT_EQ(topo.node_of_cpu(-1), 0u);
}

TEST(DiscoverTopology, SingleNodeTree) {
  FixtureSysfs fx("topo_single");
  fx.add_node(0, "0-3");
  for (int c = 0; c < 4; ++c) fx.add_cpu(c, 0);

  const auto topo = qp::discover_topology(fx.root());
  EXPECT_FALSE(topo.is_fallback());
  ASSERT_EQ(topo.node_count(), 1u);
  EXPECT_EQ(topo.package_count(), 1u);
  EXPECT_EQ(topo.cpu_count(), 4u);
}

TEST(DiscoverTopology, NoNodeDirectoryFallsBackToOneNodeOverOnlineCpus) {
  FixtureSysfs fx("topo_nonode");
  fx.write("devices/system/cpu/online", "0-5");

  const auto topo = qp::discover_topology(fx.root());
  EXPECT_TRUE(topo.is_fallback());
  ASSERT_EQ(topo.node_count(), 1u);
  EXPECT_EQ(topo.cpu_count(), 6u);
  EXPECT_EQ(topo.node_of_cpu(5), 0u);
}

TEST(DiscoverTopology, EmptyTreeStillYieldsAUsableTopology) {
  FixtureSysfs fx("topo_empty");
  const auto topo = qp::discover_topology(fx.root());
  EXPECT_TRUE(topo.is_fallback());
  ASSERT_GE(topo.node_count(), 1u);
  EXPECT_GE(topo.cpu_count(), 1u);
}

TEST(DiscoverTopology, MemoryOnlyNodeBetweenCpuNodesDoesNotTruncate) {
  // Memory-only nodes (Optane/CXL) have an empty cpulist and may sit
  // between cpu-bearing nodes; discovery must skip them, not stop.
  FixtureSysfs fx("topo_memonly");
  fx.add_node(0, "0-3");
  fx.write("devices/system/node/node1/cpulist", "");  // memory-only
  fx.add_node(2, "4-7");
  for (int c = 0; c < 8; ++c) fx.add_cpu(c, c / 4);

  const auto topo = qp::discover_topology(fx.root());
  ASSERT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.nodes()[1].sysfs_id, 2);
  EXPECT_EQ(topo.node_of_cpu(5), 1u);
}

TEST(DiscoverTopology, MalformedNodeListsAreSkipped) {
  FixtureSysfs fx("topo_malformed");
  fx.add_node(0, "not a cpulist");  // memory-only/garbage node: dropped
  fx.add_node(1, "0-1");
  for (int c = 0; c < 2; ++c) fx.add_cpu(c, 0);

  const auto topo = qp::discover_topology(fx.root());
  EXPECT_FALSE(topo.is_fallback());
  ASSERT_EQ(topo.node_count(), 1u);
  EXPECT_EQ(topo.nodes()[0].sysfs_id, 1);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<int>{0, 1}));
}

TEST(DiscoverTopology, OverlappingNodeListsKeepFirstClaim) {
  // A cpu listed by two nodes belongs to the first; the duplicate is
  // dropped so cpu_count() counts distinct cpus and node_of_cpu()
  // agrees with the node lists.
  FixtureSysfs fx("topo_overlap");
  fx.add_node(0, "0-3");
  fx.add_node(1, "2-5");
  for (int c = 0; c < 6; ++c) fx.add_cpu(c, 0);

  const auto topo = qp::discover_topology(fx.root());
  ASSERT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.cpu_count(), 6u);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<int>{4, 5}));
  EXPECT_EQ(topo.node_of_cpu(2), 0u);
  EXPECT_EQ(topo.node_of_cpu(5), 1u);
}

TEST(DiscoverTopology, MissingPackageIdsDefaultToOnePackage) {
  FixtureSysfs fx("topo_nopkg");
  fx.add_node(0, "0-1");
  fx.add_node(1, "2-3");  // no cpu*/topology files at all

  const auto topo = qp::discover_topology(fx.root());
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.package_count(), 1u);
}

TEST(ProcessTopology, IsCachedAndWellFormed) {
  const auto& topo = qp::topology();
  EXPECT_GE(topo.node_count(), 1u);
  EXPECT_GE(topo.cpu_count(), 1u);
  EXPECT_EQ(&topo, &qp::topology());  // one discovery per process
}

// ------------------------------------------------------- cohort map

TEST(TopologyCohortMap, OneCohortPerNodeViaRoundRobinPlacement) {
  FixtureSysfs fx("topo_map");
  fx.add_node(0, "0-1");
  fx.add_node(1, "2-3");
  const auto topo = qp::discover_topology(fx.root());
  qh::TopologyCohortMap map(topo);

  EXPECT_EQ(map.cohort_count(qp::kMaxThreads), 2u);
  for (std::size_t i = 0; i < 64; ++i) {
    // Whatever cpu the harness places index i on, the cohort must be
    // that cpu's node — and inside the table.
    EXPECT_EQ(map.cohort_of(i), topo.node_of_cpu(qp::cpu_for_index(i)));
    EXPECT_LT(map.cohort_of(i), map.cohort_count(qp::kMaxThreads));
  }
}

TEST(TopologyCohortMap, OneNodeTopologyIsOneCohort) {
  FixtureSysfs fx("topo_one_node");
  fx.add_node(0, "0-3");
  const auto topo = qp::discover_topology(fx.root());
  ASSERT_EQ(topo.node_count(), 1u);
  qh::TopologyCohortMap map(topo);
  EXPECT_EQ(map.cohort_count(qp::kMaxThreads), 1u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(map.cohort_of(i), 0u);
  EXPECT_EQ(map.my_cohort(), 0u);
}

TEST(TopologyCohortMap, DefaultsToTheProcessTopology) {
  qh::TopologyCohortMap map;
  EXPECT_EQ(&map.topology(), &qp::topology());
  EXPECT_GE(map.cohort_count(qp::kMaxThreads), 1u);
}

TEST(TopologyCohortMapDeathTest, NodeWithoutCpusAborts) {
  // A Topology built by hand can carry a cpu-less node (discovery never
  // produces one); seating a cohort there would strand its local lock.
  std::vector<qp::Topology::Node> nodes(2);
  nodes[0].cpus = {0, 1};
  // nodes[1].cpus left empty
  const qp::Topology topo(std::move(nodes));
  EXPECT_DEATH(qh::TopologyCohortMap{topo},
               "topology node without cpus");
}

// ----------------------------------------- the cohort lock combinator

namespace {

/// One thread per allowed CPU: the compositions run at the process-
/// default policy and the ticket tiers spin whatever the policy
/// (battery.hpp's rule).
const std::size_t kThreads = qsv::test::dedicated_crew();
const std::size_t kOps = qsv::test::quota(8000, kThreads);

}  // namespace

TEST(CohortCatalogue, RegistersAtLeastThreeCompositions) {
  const auto entries =
      qsv::catalog::filter(qsv::catalog::Family::kLock, qsv::catalog::kCohort);
  std::size_t combinators = 0;
  for (const auto* e : entries) {
    EXPECT_TRUE(e->make_budgeted)
        << e->name << " carries kCohort but no budget factory";
    if (e->name.rfind("cohort/", 0) == 0) ++combinators;
  }
  EXPECT_GE(combinators, 3u);
  // hier-qsv is the QSV×QSV composition over blocks of four threads.
  const auto* hier = qsv::catalog::find("hier-qsv");
  ASSERT_NE(hier, nullptr);
  EXPECT_TRUE(hier->has(qsv::catalog::kCohort));
  EXPECT_TRUE(hier->make_budgeted);
}

TEST(CohortCatalogue, EveryCompositionExcludesAcrossBudgets) {
  // The property test: mutual exclusion must hold for every registered
  // composition at the degenerate, small, and default budgets.
  for (const auto* e : qsv::catalog::filter(qsv::catalog::Family::kLock,
                                            qsv::catalog::kCohort)) {
    if (!e->make_budgeted) continue;
    for (const std::size_t budget : {0ul, 2ul, 16ul}) {
      SCOPED_TRACE(e->name + " budget " + std::to_string(budget));
      auto lock = e->make_budgeted(kThreads, qsv::get_default_wait_policy(),
                                   budget);
      qsv::test::exclusion_battery(*lock, kThreads, kOps);
    }
  }
}

namespace {

/// Instantiations of the three shipped composition shapes over a block
/// map so the streak bound is deterministic in shape; the per-instance
/// telemetry record replaces the old process-global counting sink.
template <typename G, typename L>
using Counting = qh::CohortLock<G, L, qh::BlockCohortMap>;

template <typename Lock>
void streak_battery(Lock& lock, std::size_t budget) {
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) {
      lock.lock();
      counter.bump();
      lock.unlock();
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), kThreads * kOps);
  const auto passes = rec->local_passes();
  const auto acquires = rec->global_acquires();
  ASSERT_GT(acquires, 0u);
  // Budget bounds every local-pass streak: one global tenure admits at
  // most `budget` consecutive passes.
  EXPECT_LE(passes, acquires * budget);
  // Tenures balance: what was acquired was released (lock is idle now).
  EXPECT_EQ(acquires, rec->global_releases());
}

}  // namespace

TEST(CohortLock, BudgetBoundsLocalPassStreaksQsvQsv) {
  constexpr std::size_t kBudget = 4;
  Counting<qsv::core::QsvMutex, qsv::core::QsvMutex> lock(
      kBudget, qsv::get_default_wait_policy(), qh::BlockCohortMap(4));
  streak_battery(lock, kBudget);
}

TEST(CohortLock, BudgetBoundsLocalPassStreaksQsvTicket) {
  constexpr std::size_t kBudget = 4;
  Counting<qsv::core::QsvMutex, qsv::locks::TicketLock> lock(
      kBudget, qsv::get_default_wait_policy(), qh::BlockCohortMap(4));
  streak_battery(lock, kBudget);
}

TEST(CohortLock, ZeroBudgetNeverPassesLocally) {
  Counting<qsv::core::QsvMutex, qsv::core::QsvMutex> lock(
      0, qsv::get_default_wait_policy(), qh::BlockCohortMap(1024));
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < 500; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  EXPECT_EQ(rec->local_passes(), 0u);
}

TEST(CohortLock, TryLockFailsWhileHeldAndBacksOut) {
  using TryTry = qh::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex>;
  static_assert(qsv::catalog::HasTry<TryTry>);

  TryTry lock;
  ASSERT_TRUE(lock.try_lock());
  std::atomic<int> result{-1};
  std::thread t([&] { result = lock.try_lock() ? 1 : 0; });
  t.join();
  EXPECT_EQ(result.load(), 0);  // held: the attempt must fail and back out
  lock.unlock();
  ASSERT_TRUE(lock.try_lock());  // backout left the lock usable
  lock.unlock();
}

TEST(CohortLock, BuildsCohortsOnFirstUse) {
  // hier-qsv's shape: 128 block-of-4 cohorts in the table, none built
  // until a thread of the cohort takes the lock.
  const std::size_t before = qsv::obs::size();
  Counting<qsv::core::QsvMutex, qsv::core::QsvMutex> lock(
      16, qsv::get_default_wait_policy(), qh::BlockCohortMap(4));
  const qsv::obs::LockRec* rec = lock.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  // The composition's record and its global tier's, nothing per cohort.
  EXPECT_EQ(qsv::obs::size(), before + 2);
  const std::size_t unused = lock.footprint_bytes();

  lock.lock();
  lock.unlock();
  const std::size_t slab = lock.footprint_bytes() - unused;
  EXPECT_GT(slab, 0u);
  EXPECT_EQ(qsv::obs::size(), before + 3);  // the one local tier built

  const qh::BlockCohortMap map(4);
  std::vector<std::size_t> cohort_of_rank(kThreads);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    cohort_of_rank[rank] = map.my_cohort();
    for (std::size_t i = 0; i < kOps; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  std::vector<bool> used(lock.cohort_count(), false);
  used[map.my_cohort()] = true;
  for (const std::size_t c : cohort_of_rank) used[c] = true;
  const auto cohorts_used =
      static_cast<std::size_t>(std::count(used.begin(), used.end(), true));
  // One record and one slab per cohort used, however many threads
  // raced to build it.
  EXPECT_EQ(qsv::obs::size(), before + 2 + cohorts_used);
  EXPECT_EQ(lock.footprint_bytes(), unused + cohorts_used * slab);
  // The composition's own record counts every acquisition exactly.
  EXPECT_EQ(rec->acquisitions(), 1 + kThreads * kOps);
  EXPECT_EQ(rec->global_acquires(), rec->global_releases());
}

TEST(CohortLock, UncontendedAcquireReleaseRepeats) {
  qh::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex> lock;
  for (int i = 0; i < 10000; ++i) {
    lock.lock();
    lock.unlock();
  }
  SUCCEED();
}

TEST(CohortLock, TwoInstancesAreIndependent) {
  qh::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex> a, b;
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  SUCCEED();
}

TEST(CohortLock, ReportsConfiguration) {
  qh::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex> lock(8);
  EXPECT_EQ(lock.budget(), 8u);
  EXPECT_GE(lock.cohort_count(), 1u);
  EXPECT_GT(lock.footprint_bytes(), sizeof(qsv::core::QsvMutex));
}
