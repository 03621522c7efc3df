// platform_test.cpp — unit and property tests for the platform substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "platform/arch.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/histogram.hpp"
#include "platform/node_arena.hpp"
#include "platform/rng.hpp"
#include "platform/stats.hpp"
#include "platform/thread_id.hpp"
#include "platform/timing.hpp"
#include "platform/wait.hpp"

namespace qp = qsv::platform;

// ---------------------------------------------------------------- arch

TEST(Arch, RoundUp) {
  EXPECT_EQ(qp::round_up(0, 64), 0u);
  EXPECT_EQ(qp::round_up(1, 64), 64u);
  EXPECT_EQ(qp::round_up(64, 64), 64u);
  EXPECT_EQ(qp::round_up(65, 64), 128u);
}

TEST(Arch, IsPow2) {
  EXPECT_FALSE(qp::is_pow2(0));
  EXPECT_TRUE(qp::is_pow2(1));
  EXPECT_TRUE(qp::is_pow2(2));
  EXPECT_FALSE(qp::is_pow2(3));
  EXPECT_TRUE(qp::is_pow2(1ULL << 40));
  EXPECT_FALSE(qp::is_pow2((1ULL << 40) + 1));
}

TEST(Arch, NextPow2) {
  EXPECT_EQ(qp::next_pow2(1), 1u);
  EXPECT_EQ(qp::next_pow2(2), 2u);
  EXPECT_EQ(qp::next_pow2(3), 4u);
  EXPECT_EQ(qp::next_pow2(63), 64u);
  EXPECT_EQ(qp::next_pow2(64), 64u);
  EXPECT_EQ(qp::next_pow2(65), 128u);
}

TEST(Arch, CeilLog2) {
  EXPECT_EQ(qp::ceil_log2(1), 0u);
  EXPECT_EQ(qp::ceil_log2(2), 1u);
  EXPECT_EQ(qp::ceil_log2(3), 2u);
  EXPECT_EQ(qp::ceil_log2(4), 2u);
  EXPECT_EQ(qp::ceil_log2(5), 3u);
  EXPECT_EQ(qp::ceil_log2(1024), 10u);
}

TEST(Arch, Log2Pow2) {
  EXPECT_EQ(qp::log2_pow2(1), 0u);
  EXPECT_EQ(qp::log2_pow2(2), 1u);
  EXPECT_EQ(qp::log2_pow2(1024), 10u);
}

// --------------------------------------------------------------- cache

TEST(Cache, PaddedElementsDoNotShareLines) {
  qp::PaddedArray<std::uint64_t> arr(8);
  for (std::size_t i = 0; i + 1 < arr.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, qp::kFalseSharingRange);
  }
}

TEST(Cache, PaddedArrayFootprintCountsPadding) {
  qp::PaddedArray<char> arr(4);
  EXPECT_GE(arr.footprint_bytes(), 4 * qp::kFalseSharingRange);
}

TEST(Cache, MakeLineAlignedRespectsAlignment) {
  auto p = qp::make_line_aligned<std::uint64_t>(42u);
  EXPECT_EQ(*p, 42u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.get()) %
                qp::kFalseSharingRange,
            0u);
}

// ------------------------------------------------------------- backoff

TEST(Backoff, ExponentialDoublesUpToCap) {
  qp::ExponentialBackoff b(4, 64);
  EXPECT_EQ(b.current(), 4u);
  b();
  EXPECT_EQ(b.current(), 8u);
  b();
  b();
  b();
  EXPECT_EQ(b.current(), 64u);
  b();
  EXPECT_EQ(b.current(), 64u);  // capped
  b.reset();
  EXPECT_EQ(b.current(), 4u);
}

TEST(Backoff, ProportionalScalesWithDistance) {
  // Behavioral check only: longer distance must not return sooner.
  qp::ProportionalBackoff b(1);
  const auto t0 = qp::now_ns();
  b.wait(1);
  const auto t1 = qp::now_ns();
  b.wait(512);
  const auto t2 = qp::now_ns();
  EXPECT_GE(t2 - t1, t1 - t0);
}

// ----------------------------------------------------------------- rng

TEST(Rng, SplitMixDeterministic) {
  qp::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministicAndSeedSensitive) {
  qp::Xoshiro256 a(1), b(1), c(2);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowStaysInRange) {
  qp::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  qp::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  qp::Xoshiro256 rng(99);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

// --------------------------------------------------------------- stats

TEST(Stats, WelfordMatchesClosedForm) {
  qp::OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeEqualsSequential) {
  qp::OnlineStats whole, left, right;
  qp::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 100;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
}

TEST(Stats, MergeWithEmptySides) {
  qp::OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(qp::quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(qp::quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(qp::quantile(v, 0.5), 5.5);
}

TEST(Stats, JainIndexBounds) {
  std::vector<std::uint64_t> fair{100, 100, 100, 100};
  std::vector<std::uint64_t> unfair{400, 0, 0, 0};
  EXPECT_DOUBLE_EQ(qp::jain_index(fair), 1.0);
  EXPECT_DOUBLE_EQ(qp::jain_index(unfair), 0.25);
  EXPECT_DOUBLE_EQ(qp::jain_index({}), 1.0);
}

TEST(Stats, CvZeroWhenUniform) {
  std::vector<std::uint64_t> uniform{7, 7, 7};
  EXPECT_DOUBLE_EQ(qp::cv(uniform), 0.0);
}

// ----------------------------------------------------------- histogram

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(qp::LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(qp::LogHistogram::bucket_of(1), 0u);
  EXPECT_EQ(qp::LogHistogram::bucket_of(2), 1u);
  EXPECT_EQ(qp::LogHistogram::bucket_of(3), 1u);
  EXPECT_EQ(qp::LogHistogram::bucket_of(4), 2u);
  EXPECT_EQ(qp::LogHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(qp::LogHistogram::bucket_of(1024), 10u);
}

TEST(Histogram, MeanAndCount) {
  qp::LogHistogram h;
  h.add(10);
  h.add(20);
  h.add(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, QuantileUpperBoundMonotone) {
  qp::LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  const auto p50 = h.quantile_upper_bound(0.5);
  const auto p99 = h.quantile_upper_bound(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, 500u);  // true p50 is ~500; bound is >= the value
}

TEST(Histogram, MergeAddsCounts) {
  qp::LogHistogram a, b;
  a.add(5);
  b.add(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.summary().empty());
}

// ----------------------------------------------------------- thread id

TEST(ThreadId, StableWithinThreadAndUniqueWhileConcurrentlyLive) {
  const auto mine = qp::thread_index();
  EXPECT_EQ(mine, qp::thread_index());
  // Hold every thread alive until all have registered: indices are
  // recycled at thread exit, so uniqueness is guaranteed only among
  // concurrently live threads (exactly what slot-indexed algorithms
  // need).
  std::set<std::size_t> seen;
  std::mutex mu;
  std::atomic<std::size_t> registered{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      const auto idx = qp::thread_index();
      {
        std::lock_guard<std::mutex> g(mu);
        seen.insert(idx);
      }
      registered.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
    });
  }
  while (registered.load() != 8) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> g(mu);
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(seen.count(mine), 0u);
  }
  go.store(true);
  for (auto& t : threads) t.join();
}

TEST(ThreadId, IndicesAreRecycledAfterThreadExit) {
  // Sequential short-lived threads reuse indices instead of growing the
  // watermark without bound — the property that lets thread-indexed
  // structures (Graunke-Thakkar flags, cohort maps) be sized by
  // kMaxThreads in thread-churning processes.
  const auto before = qp::thread_index_watermark();
  for (int i = 0; i < 3 * static_cast<int>(qp::kMaxThreads); ++i) {
    std::thread([] { (void)qp::thread_index(); }).join();
  }
  const auto after = qp::thread_index_watermark();
  EXPECT_LE(after, before + 2);  // churn must not mint churn-many ids
  EXPECT_LT(after, qp::kMaxThreads);
}

// ---------------------------------------------------------------- wait

// Every policy through the one waiting object: the tests construct a
// RuntimeWait per policy and call through it.
class WaitPolicyTest : public ::testing::TestWithParam<qsv::wait_policy> {};
INSTANTIATE_TEST_SUITE_P(AllPolicies, WaitPolicyTest,
                         ::testing::ValuesIn(qsv::kAllWaitPolicies));

TEST_P(WaitPolicyTest, ReturnsImmediatelyWhenAlreadyChanged) {
  qp::RuntimeWait policy(GetParam());
  std::atomic<std::uint32_t> flag{1};
  policy.wait_while_equal(flag, 0u);  // flag != expected: no wait
  SUCCEED();
}

TEST_P(WaitPolicyTest, WakesOnStore) {
  qp::RuntimeWait policy(GetParam());
  std::atomic<std::uint32_t> flag{0};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag.store(1, std::memory_order_release);
    policy.notify_all(flag);
  });
  policy.wait_while_equal(flag, 0u);
  EXPECT_EQ(flag.load(), 1u);
  waker.join();
}

TEST_P(WaitPolicyTest, PredicateWaitCompletes) {
  qp::RuntimeWait policy(GetParam());
  std::atomic<std::uint32_t> word{0};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    word.fetch_add(3, std::memory_order_release);
    policy.notify_all(word);
  });
  policy.wait_until(word, [&] {
    return word.load(std::memory_order_acquire) >= 3;
  });
  EXPECT_GE(word.load(), 3u);
  waker.join();
}

TEST(RuntimeWaitDispatch, EveryPolicyWaitsAndWakes) {
  for (const qsv::wait_policy p : qsv::kAllWaitPolicies) {
    qp::RuntimeWait w(p);
    EXPECT_STREQ(w.name(), qsv::wait_policy_name(p));
    std::atomic<std::uint32_t> flag{0};
    std::thread waker([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      flag.store(7, std::memory_order_release);
      w.notify_all(flag);
    });
    w.wait_while_equal(flag, 0u);
    EXPECT_EQ(flag.load(), 7u);
    waker.join();
  }
}

TEST(SpinYieldUntil, CompletesWithoutANotify) {
  // The never-parking drain: its counterpart only stores.
  std::atomic<std::uint32_t> word{0};
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    word.store(1, std::memory_order_release);
  });
  qp::spin_yield_until(
      [&] { return word.load(std::memory_order_acquire) == 1; });
  EXPECT_EQ(word.load(), 1u);
  writer.join();
}

TEST(RuntimeWaitDispatch, SpinBudgetIsTunablePerInstance) {
  qp::RuntimeWait w(qsv::wait_policy::spin_yield);
  EXPECT_EQ(w.spin_budget(), qsv::get_default_spin_budget());
  w.set_spin_budget(17);
  EXPECT_EQ(w.spin_budget(), 17u);
  // Another instance is untouched: the budget is policy-object state,
  // not a global.
  qp::RuntimeWait other(qsv::wait_policy::spin_yield);
  EXPECT_EQ(other.spin_budget(), qsv::get_default_spin_budget());
}

// ---------------------------------------------------------- node arena

namespace {
struct TestNode {
  std::uint64_t payload = 0;
};
}  // namespace

TEST(NodeArena, ReusesThroughLocalCache) {
  auto& arena = qp::NodeArena<TestNode>::instance();
  TestNode* a = arena.acquire();
  arena.release(a);
  TestNode* b = arena.acquire();
  EXPECT_EQ(a, b);  // same thread gets its cached node back
  arena.release(b);
}

TEST(NodeArena, DistinctWhileHeld) {
  auto& arena = qp::NodeArena<TestNode>::instance();
  TestNode* a = arena.acquire();
  TestNode* b = arena.acquire();
  EXPECT_NE(a, b);
  arena.release(a);
  arena.release(b);
}

// The held chain: holds link through their own nodes, a LIFO pop finds
// its node at the head, and an out-of-order pop unlinks from the middle.
TEST(HeldList, NestedAndOutOfOrderPops) {
  struct ChainNode {
    const void* held_lock = nullptr;
    ChainNode* held_next = nullptr;
  };
  using Held = qp::HeldList<ChainNode>;
  constexpr int kHolds = 6;
  int keys[kHolds] = {};
  ChainNode nodes[kHolds];
  for (int i = 0; i < kHolds; ++i) {
    Held::stamp(&nodes[i], &keys[i]);
    Held::push(&nodes[i]);
    EXPECT_EQ(nodes[i].held_next, i == 0 ? nullptr : &nodes[i - 1]);
  }
  // Out of order: a middle hold relinks its newer neighbour past it,
  // then the oldest hold leaves the tail.
  EXPECT_EQ(Held::pop(&keys[2]), &nodes[2]);
  EXPECT_EQ(nodes[3].held_next, &nodes[1]);
  EXPECT_EQ(Held::pop(&keys[0]), &nodes[0]);
  EXPECT_EQ(nodes[1].held_next, nullptr);
  // Nested: the rest leave in LIFO order.
  for (const int i : {5, 4, 3, 1}) EXPECT_EQ(Held::pop(&keys[i]), &nodes[i]);
  // The drained chain takes new holds.
  Held::stamp(&nodes[0], &keys[0]);
  EXPECT_EQ(nodes[0].held_next, nullptr);
  Held::push(&nodes[0]);
  EXPECT_EQ(Held::pop(&keys[0]), &nodes[0]);
}

// The single-slot fast cache must make the steady-state acquire/release
// cycle allocation-free: after warm-up, cycling one node (or the
// lock/unlock pattern that produces it) never grows the arena.
TEST(NodeArena, SteadyStateCycleIsAllocationFree) {
  struct FastCacheNode {
    std::uint64_t payload = 0;
  };
  auto& arena = qp::NodeArena<FastCacheNode>::instance();
  FastCacheNode* warm = arena.acquire();  // warm this thread's fast slot
  arena.release(warm);
  const std::size_t before = arena.allocated();
  for (int i = 0; i < 10000; ++i) {
    FastCacheNode* n = arena.acquire();
    EXPECT_EQ(n, warm);  // fast slot round-trips the same node
    arena.release(n);
  }
  EXPECT_EQ(arena.allocated(), before);
}

// Fast slot holds one node; deeper nesting spills to the vector cache and
// drains back without touching the central arena.
TEST(NodeArena, FastSlotThenVectorSpill) {
  struct SpillNode {
    std::uint64_t payload = 0;
  };
  auto& arena = qp::NodeArena<SpillNode>::instance();
  SpillNode* a = arena.acquire();
  SpillNode* b = arena.acquire();
  SpillNode* c = arena.acquire();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  arena.release(a);  // -> fast slot
  arena.release(b);  // -> vector
  arena.release(c);  // -> vector
  const std::size_t before = arena.allocated();
  EXPECT_EQ(arena.acquire(), a);  // fast slot first
  SpillNode* d = arena.acquire();
  SpillNode* e = arena.acquire();
  EXPECT_TRUE((d == b && e == c) || (d == c && e == b));
  EXPECT_EQ(arena.allocated(), before);  // all served from caches
  arena.release(a);
  arena.release(d);
  arena.release(e);
}

// One thread only acquires, another only releases — a writer recycling
// withdrawn reader nodes while the reader draws fresh ones. The
// releaser's cache must spill back to the central list and the
// acquirer must drain it, so the arena stays bounded instead of growing
// by one node per cycle.
TEST(NodeArena, CrossThreadRecyclingStaysBounded) {
  struct HandoffNode {
    std::uint64_t payload = 0;
  };
  using Arena = qp::NodeArena<HandoffNode>;
  auto& arena = Arena::instance();
  constexpr std::size_t kBatch = 16;
  constexpr int kRounds = 2000;  // 32,000 nodes change hands
  std::vector<HandoffNode*> batch(kBatch);
  std::atomic<int> turn{0};  // even: acquirer's move, odd: releaser's
  std::thread releaser([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (turn.load(std::memory_order_acquire) != 2 * r + 1) {
        std::this_thread::yield();
      }
      for (HandoffNode* n : batch) arena.release(n);
      turn.store(2 * r + 2, std::memory_order_release);
    }
  });
  const std::size_t before = arena.allocated();
  for (int r = 0; r < kRounds; ++r) {
    while (turn.load(std::memory_order_acquire) != 2 * r) {
      std::this_thread::yield();
    }
    for (HandoffNode*& n : batch) n = arena.acquire();
    turn.store(2 * r + 1, std::memory_order_release);
  }
  releaser.join();
  // The releaser's cache and the nodes in flight bound the growth; an
  // uncapped cache grows by kBatch every round (32,000 here).
  EXPECT_LE(arena.allocated() - before,
            Arena::kLocalCap + 2 * kBatch + Arena::kLocalCap / 2);
}

// -------------------------------------------------------------- timing

TEST(Timing, MonotonicAndAdvancing) {
  const auto a = qp::now_ns();
  qp::spin_for(1000);
  const auto b = qp::now_ns();
  EXPECT_GE(b, a);
}

TEST(Timing, StopwatchMeasures) {
  qp::Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.elapsed_ns(), 5'000'000u);
  EXPECT_GT(sw.elapsed_s(), 0.0);
}

TEST(Timing, TscCalibrationPositive) { EXPECT_GT(qp::tsc_ghz(), 0.0); }
