// eventcount_test.cpp — eventcounts, sequencers, and the lock-free
// bounded ring built from them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "eventcount/bounded_ring.hpp"
#include "eventcount/eventcount.hpp"
#include "eventcount/sequencer.hpp"
#include "harness/team.hpp"
#include "platform/wait.hpp"

namespace qe = qsv::eventcount;

namespace {
constexpr std::size_t kThreads = 8;
}

// ----------------------------------------------------------- sequencer

TEST(Sequencer, SingleThreadCountsFromZero) {
  qe::Sequencer seq;
  EXPECT_EQ(seq.ticket(), 0u);
  EXPECT_EQ(seq.ticket(), 1u);
  EXPECT_EQ(seq.ticket(), 2u);
  EXPECT_EQ(seq.issued(), 3u);
}

TEST(Sequencer, TicketsUniqueAcrossThreads) {
  qe::Sequencer seq;
  constexpr std::size_t kPer = 5000;
  std::vector<std::vector<std::uint32_t>> got(kThreads);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    got[rank].reserve(kPer);
    for (std::size_t i = 0; i < kPer; ++i) got[rank].push_back(seq.ticket());
  });
  std::set<std::uint32_t> all;
  for (const auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), kThreads * kPer);           // no duplicates
  EXPECT_EQ(*all.rbegin(), kThreads * kPer - 1);    // no gaps
}

TEST(Sequencer, TicketsMonotonicPerThread) {
  qe::Sequencer seq;
  std::atomic<bool> ok{true};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    std::uint32_t prev = seq.ticket();
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t t = seq.ticket();
      if (t <= prev) ok = false;
      prev = t;
    }
  });
  EXPECT_TRUE(ok);
}

// ------------------------------------------- eventcount (typed sweep)
//
// The heavy sweeps run the two runtime-polymorphic eventcounts at the
// process default policy; a crew that outnumbers the CPUs waits under
// spin_yield instead of pure spin (battery.hpp's rule). Per-policy
// blocking coverage lives in the light value-parameterized suite below
// and in wait_policy_test's facade matrix.

template <typename Ec>
class EventCountTyped : public ::testing::Test {};

using EcImpls = ::testing::Types<qe::EventCount, qe::QueuedEventCount>;
TYPED_TEST_SUITE(EventCountTyped, EcImpls);

TYPED_TEST(EventCountTyped, StartsAtZero) {
  TypeParam ec;
  EXPECT_EQ(ec.read(), 0u);
}

TYPED_TEST(EventCountTyped, AdvanceIncrementsAndReturnsNewCount) {
  TypeParam ec;
  EXPECT_EQ(ec.advance(), 1u);
  EXPECT_EQ(ec.advance(), 2u);
  EXPECT_EQ(ec.read(), 2u);
}

TYPED_TEST(EventCountTyped, AwaitPastCountReturnsImmediately) {
  TypeParam ec;
  ec.advance();
  ec.advance();
  EXPECT_GE(ec.await(1), 1u);
  EXPECT_GE(ec.await(2), 2u);
  EXPECT_GE(ec.await(0), 2u);
}

TYPED_TEST(EventCountTyped, AwaitBlocksUntilAdvance) {
  TypeParam ec;
  std::atomic<int> phase{0};
  std::thread waiter([&] {
    phase = 1;
    const auto seen = ec.await(1);
    EXPECT_GE(seen, 1u);
    phase = 2;
  });
  while (phase.load() != 1) std::this_thread::yield();
  // Give the waiter a moment to actually block, then fire the event.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(phase.load(), 1);
  ec.advance();
  waiter.join();
  EXPECT_EQ(phase.load(), 2);
}

TYPED_TEST(EventCountTyped, ManyWaitersAllReleasedByOneAdvance) {
  const qsv::test::CrewPolicy policy(kThreads);
  TypeParam ec;
  std::atomic<std::size_t> released{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    if (rank == 0) {
      // Let the waiters register, then fire.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ec.advance();
    } else {
      ec.await(1);
      released.fetch_add(1);
    }
  });
  EXPECT_EQ(released.load(), kThreads - 1);
}

TYPED_TEST(EventCountTyped, StaggeredTargetsReleaseInOrder) {
  const qsv::test::CrewPolicy policy(kThreads);
  TypeParam ec;
  std::vector<std::uint32_t> seen(kThreads, 0);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    if (rank == 0) {
      for (std::uint32_t i = 0; i < kThreads - 1; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ec.advance();
      }
    } else {
      // Thread r waits for r events.
      seen[rank] = ec.await(static_cast<std::uint32_t>(rank));
    }
  });
  for (std::size_t r = 1; r < kThreads; ++r) {
    EXPECT_GE(seen[r], r) << "rank " << r;
  }
}

TYPED_TEST(EventCountTyped, HammerAwaitAdvanceNoLostWakeups) {
  // Lost-wakeup hunting: half the threads advance, half await the next
  // value they have seen; every await must eventually return.
  const qsv::test::CrewPolicy policy(4);
  TypeParam ec;
  constexpr std::uint32_t kEvents = 20000;
  qsv::harness::ThreadTeam::run(4, [&](std::size_t rank) {
    if (rank % 2 == 0) {
      for (std::uint32_t i = 0; i < kEvents / 2; ++i) ec.advance();
    } else {
      std::uint32_t target = 1;
      while (target <= kEvents) {
        target = ec.await(target) + 1;
      }
    }
  });
  EXPECT_EQ(ec.read(), kEvents);
}

// --------------------------------- eventcount x wait_policy (light)

class EventCountPolicy
    : public ::testing::TestWithParam<qsv::wait_policy> {};

TEST_P(EventCountPolicy, AwaitBlocksUntilAdvanceBothImpls) {
  const auto policy = GetParam();
  const auto blocks_until_advance = [&](auto& ec) {
    std::atomic<int> phase{0};
    std::thread waiter([&] {
      phase = 1;
      EXPECT_GE(ec.await(1), 1u);
      phase = 2;
    });
    while (phase.load() != 1) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ec.advance();
    waiter.join();
    EXPECT_EQ(phase.load(), 2);
  };
  qe::EventCount central{policy};
  blocks_until_advance(central);
  qe::QueuedEventCount queued{policy};
  blocks_until_advance(queued);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, EventCountPolicy,
    ::testing::ValuesIn(std::begin(qsv::kAllWaitPolicies),
                        std::end(qsv::kAllWaitPolicies)),
    [](const auto& info) { return qsv::wait_policy_name(info.param); });

// ------------------------------------------------- eventcount ordering

TEST(EventCount, AdvancePublishesPriorWrites) {
  // The release/acquire contract: data written before advance() must be
  // visible after await() observes the event.
  qe::EventCount ec;
  std::uint64_t payload = 0;
  std::thread producer([&] {
    payload = 0xfeedface;
    ec.advance();
  });
  ec.await(1);
  EXPECT_EQ(payload, 0xfeedfaceu);
  producer.join();
}

TEST(QueuedEventCount, WithdrawnWaitersDoNotLeakGrants) {
  // A waiter that finds itself already satisfied withdraws its node; a
  // later waiter with a later target must still be woken correctly.
  qe::QueuedEventCount ec;
  ec.advance();          // count = 1
  EXPECT_EQ(ec.await(1), 1u);  // satisfied immediately (likely withdraw path)
  std::thread t([&] { EXPECT_GE(ec.await(2), 2u); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ec.advance();
  t.join();
}

// -------------------------------------------------------- bounded ring

template <typename Ring>
void ring_spsc_fifo() {
  const qsv::test::CrewPolicy policy(2);
  Ring ring(8);
  constexpr std::uint32_t kItems = 50000;
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kItems; ++i) ring.push(i);
  });
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(ring.pop(), i);  // strict FIFO for a single producer
  }
  producer.join();
}

TEST(EcBoundedRing, SpscFifoCentralized) {
  ring_spsc_fifo<qe::EcBoundedRing<std::uint32_t, qe::EventCount>>();
}

TEST(EcBoundedRing, SpscFifoQueued) {
  ring_spsc_fifo<qe::EcBoundedRing<std::uint32_t, qe::QueuedEventCount>>();
}

TEST(EcBoundedRing, SpscFifoParkWait) {
  // The ring's eventcounts take the process policy at construction.
  const qsv::wait_policy saved = qsv::get_default_wait_policy();
  qsv::set_default_wait_policy(qsv::wait_policy::park);
  ring_spsc_fifo<qe::EcBoundedRing<std::uint32_t, qe::EventCount>>();
  qsv::set_default_wait_policy(saved);
}

template <typename Ring>
void ring_mpmc_conservation() {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  const qsv::test::CrewPolicy policy(kProducers + kConsumers);
  Ring ring(16);
  constexpr std::uint64_t kPer = 20000;
  std::atomic<std::uint64_t> sum{0};
  qsv::harness::ThreadTeam::run(kProducers + kConsumers, [&](std::size_t r) {
    if (r < kProducers) {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        ring.push(static_cast<std::uint32_t>(r * kPer + i));
      }
    } else {
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < kPer; ++i) local += ring.pop();
      sum.fetch_add(local);
    }
  });
  // Conservation: every pushed value popped exactly once.
  const std::uint64_t n = kProducers * kPer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_EQ(ring.pushed(), n);
  EXPECT_EQ(ring.popped(), n);
}

TEST(EcBoundedRing, MpmcConservationCentralized) {
  ring_mpmc_conservation<qe::EcBoundedRing<std::uint32_t,
                                           qe::EventCount>>();
}

TEST(EcBoundedRing, MpmcConservationQueued) {
  ring_mpmc_conservation<
      qe::EcBoundedRing<std::uint32_t, qe::QueuedEventCount>>();
}

TEST(EcBoundedRing, CapacityOneFullySerializes) {
  qe::EcBoundedRing<int> ring(1);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) ring.push(i);
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(ring.pop(), i);
  producer.join();
}

TEST(EcBoundedRing, ProducerBlocksWhenFull) {
  qe::EcBoundedRing<int> ring(2);
  ring.push(1);
  ring.push(2);
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    ring.push(3);  // must block until a pop frees slot 0
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(third_done.load());
  EXPECT_EQ(ring.pop(), 1);
  producer.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(ring.pop(), 2);
  EXPECT_EQ(ring.pop(), 3);
}
