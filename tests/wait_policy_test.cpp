// wait_policy_test.cpp — the runtime waiting layer: QSV_WAIT parsing,
// process/instance defaults, adaptive budget calibration, the
// facade-wide policy matrix (every primitive x every wait_policy under
// contention), and a lost-wakeup stress for the parking policies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "catalog/catalog.hpp"
#include "harness/team.hpp"
#include "platform/wait.hpp"
#include "qsv/qsv.hpp"

namespace qp = qsv::platform;

namespace {

/// RAII guard: tests mutate the process defaults; always restore.
struct DefaultsGuard {
  qsv::wait_policy policy = qsv::get_default_wait_policy();
  std::uint32_t budget = qsv::get_default_spin_budget();
  ~DefaultsGuard() {
    qsv::set_default_wait_policy(policy);
    qsv::set_default_spin_budget(budget);
  }
};

}  // namespace

// ----------------------------------------------------- names & parsing

TEST(WaitPolicyApi, NamesRoundTrip) {
  for (const qsv::wait_policy p : qsv::kAllWaitPolicies) {
    qsv::wait_policy parsed;
    ASSERT_TRUE(qsv::wait_policy_from_string(qsv::wait_policy_name(p),
                                             parsed))
        << qsv::wait_policy_name(p);
    EXPECT_EQ(parsed, p);
  }
}

TEST(WaitPolicyApi, YieldAliasAndRejections) {
  qsv::wait_policy p = qsv::wait_policy::park;
  EXPECT_TRUE(qsv::wait_policy_from_string("yield", p));
  EXPECT_EQ(p, qsv::wait_policy::spin_yield);

  // Unknown values never map to a policy — and never touch `out`.
  p = qsv::wait_policy::park;
  for (const char* bad : {"", "Spin", "SPIN", "spin ", " spin", "futex",
                          "spinyield", "adaptive2", "spin|yield"}) {
    EXPECT_FALSE(qsv::wait_policy_from_string(bad, p)) << "'" << bad << "'";
    EXPECT_EQ(p, qsv::wait_policy::park) << "'" << bad << "'";
  }
}

TEST(WaitPolicyApi, EnvParsingAppliesPolicyAndBudget) {
  DefaultsGuard guard;
  EXPECT_TRUE(qsv::detail::apply_wait_env("park"));
  EXPECT_EQ(qsv::get_default_wait_policy(), qsv::wait_policy::park);

  EXPECT_TRUE(qsv::detail::apply_wait_env("spin_yield:4096"));
  EXPECT_EQ(qsv::get_default_wait_policy(), qsv::wait_policy::spin_yield);
  EXPECT_EQ(qsv::get_default_spin_budget(), 4096u);

  // A plain policy name leaves the budget alone.
  EXPECT_TRUE(qsv::detail::apply_wait_env("adaptive"));
  EXPECT_EQ(qsv::get_default_wait_policy(), qsv::wait_policy::adaptive);
  EXPECT_EQ(qsv::get_default_spin_budget(), 4096u);
}

TEST(WaitPolicyApi, EnvParsingRejectsUnknownValuesUnchanged) {
  DefaultsGuard guard;
  qsv::set_default_wait_policy(qsv::wait_policy::spin_yield);
  qsv::set_default_spin_budget(123);
  for (const char* bad :
       {"", "bogus", "spin:", "spin:abc", "spin:-1", "spin:1e3", "yield:0",
        "park:99999999999999999999", "adaptive:12:34", "spin yield"}) {
    EXPECT_FALSE(qsv::detail::apply_wait_env(bad)) << "'" << bad << "'";
    EXPECT_EQ(qsv::get_default_wait_policy(), qsv::wait_policy::spin_yield)
        << "'" << bad << "'";
    EXPECT_EQ(qsv::get_default_spin_budget(), 123u) << "'" << bad << "'";
  }
}

TEST(WaitPolicyApi, ProcessDefaultSeedsNewInstancesAtConstruction) {
  DefaultsGuard guard;
  qsv::set_default_wait_policy(qsv::wait_policy::park);
  qp::RuntimeWait parked;  // constructed under the park default
  qsv::set_default_wait_policy(qsv::wait_policy::spin);
  qp::RuntimeWait spinning;  // constructed under the spin default
  // The policy is fixed at construction, not read per wait.
  EXPECT_EQ(parked.policy(), qsv::wait_policy::park);
  EXPECT_EQ(spinning.policy(), qsv::wait_policy::spin);
}

// ------------------------------------------------ adaptive calibration

TEST(AdaptiveWait, ImmediateGrantsShrinkTheBudgetToTheFloor) {
  qp::RuntimeWait w(qsv::wait_policy::adaptive);
  w.set_spin_budget(qp::RuntimeWait::kMaxSpinPolls);
  std::atomic<std::uint32_t> flag{1};
  // Every wait observes the flag already changed: observed wake latency
  // ~0, so the EWMA walks the budget down to the floor.
  for (int i = 0; i < 200; ++i) w.wait_while_equal(flag, 0u);
  EXPECT_EQ(w.spin_budget(), qp::RuntimeWait::kMinSpinPolls);
}

TEST(AdaptiveWait, ParkedWaitsGrowTheBudgetTowardTheCeiling) {
  qp::RuntimeWait w(qsv::wait_policy::adaptive);
  w.set_spin_budget(qp::RuntimeWait::kMinSpinPolls);
  const std::uint32_t initial = w.spin_budget();
  std::atomic<std::uint32_t> flag{0};
  // Each round the grant arrives far later than any spin budget, so the
  // waiter parks and records the saturating sample.
  for (int i = 0; i < 40; ++i) {
    flag.store(0, std::memory_order_relaxed);
    std::thread waker([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      flag.store(1, std::memory_order_release);
      w.notify_all(flag);
    });
    w.wait_while_equal(flag, 0u);
    waker.join();
  }
  EXPECT_GT(w.spin_budget(), initial);
  EXPECT_EQ(w.spin_budget(), qp::RuntimeWait::kMaxSpinPolls);
}

TEST(AdaptiveWait, BudgetStaysClamped) {
  qp::RuntimeWait w(qsv::wait_policy::adaptive);
  w.set_spin_budget(0);
  EXPECT_GE(w.spin_budget(), qp::RuntimeWait::kMinSpinPolls);
  w.set_spin_budget(~0u);
  EXPECT_LE(w.spin_budget(), qp::RuntimeWait::kMaxSpinPolls);
}

TEST(AdaptiveWait, RuntimeWaitExposesTheCalibratedValue) {
  qp::RuntimeWait w(qsv::wait_policy::adaptive);
  std::atomic<std::uint32_t> flag{1};
  for (int i = 0; i < 200; ++i) w.wait_while_equal(flag, 0u);
  // spin_budget() reports the live adaptive calibration, not the
  // static spin_yield/park budget.
  EXPECT_EQ(w.spin_budget(), qp::RuntimeWait::kMinSpinPolls);
}

// -------------------------------------------------- the policy matrix
//
// Every facade primitive x every wait_policy acquires and releases
// under contention. Iteration counts are modest on purpose: the matrix
// proves cross-policy correctness (grants are never lost, parked
// waiters always woken), not throughput — and it must pass on 1-CPU
// hosts even for the pure-spin row.

class PolicyMatrix : public ::testing::TestWithParam<qsv::wait_policy> {
 protected:
  /// Four threads, and no more than the CPUs under pure spin
  /// (battery.hpp's rule).
  const std::size_t kThreads =
      GetParam() == qsv::wait_policy::spin ? qsv::test::capped_crew(4) : 4;
  static constexpr std::size_t kOps = 400;
};

TEST_P(PolicyMatrix, MutexMutualExclusion) {
  qsv::mutex mu(GetParam());
  std::uint64_t guarded = 0;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) {
      std::lock_guard<qsv::mutex> hold(mu);
      ++guarded;
    }
  });
  EXPECT_EQ(guarded, kThreads * kOps);
}

TEST_P(PolicyMatrix, SharedMutexReadersAndWriters) {
  qsv::shared_mutex rw(GetParam());
  std::uint64_t value = 0;
  std::atomic<std::uint64_t> torn{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    for (std::size_t i = 0; i < kOps; ++i) {
      if (rank % 2 == 0) {
        rw.lock_shared();
        const std::uint64_t a = value;
        const std::uint64_t b = value;
        if (a != b) torn.fetch_add(1);
        rw.unlock_shared();
      } else {
        rw.lock();
        ++value;
        rw.unlock();
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(value, (kThreads / 2) * kOps);
}

TEST_P(PolicyMatrix, CentralSharedMutexReadersAndWriters) {
  qsv::central_shared_mutex rw(GetParam());
  std::uint64_t value = 0;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    for (std::size_t i = 0; i < kOps; ++i) {
      if (rank % 2 == 0) {
        rw.lock_shared();
        (void)value;
        rw.unlock_shared();
      } else {
        rw.lock();
        ++value;
        rw.unlock();
      }
    }
  });
  EXPECT_EQ(value, (kThreads / 2) * kOps);
}

TEST_P(PolicyMatrix, BarrierEpisodesStayAligned) {
  qsv::barrier bar(kThreads, GetParam());
  std::atomic<std::uint64_t> counter{0};
  std::atomic<std::uint64_t> failures{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t e = 1; e <= 100; ++e) {
      counter.fetch_add(1);
      bar.arrive_and_wait(0);
      if (counter.load() != kThreads * e) failures.fetch_add(1);
      bar.arrive_and_wait(0);
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}

TEST_P(PolicyMatrix, TimedMutexBoundedAndUnbounded) {
  qsv::timed_mutex tm(GetParam());
  std::uint64_t guarded = 0;
  std::atomic<std::uint64_t> timeouts{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps / 4; ++i) {
      if (tm.try_lock_for(std::chrono::milliseconds(50))) {
        ++guarded;
        tm.unlock();
      } else {
        timeouts.fetch_add(1);
      }
      tm.lock();
      ++guarded;
      tm.unlock();
    }
  });
  // Under a 50ms deadline and ~free critical sections, withdrawals are
  // possible but losses are not: every entry is accounted.
  EXPECT_EQ(guarded + timeouts.load(), kThreads * (kOps / 4) * 2);
}

TEST_P(PolicyMatrix, SemaphorePermitsConserved) {
  qsv::counting_semaphore sem(2, GetParam());
  std::atomic<std::int64_t> inside{0};
  std::atomic<std::uint64_t> overs{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps / 2; ++i) {
      sem.acquire();
      if (inside.fetch_add(1) >= 2) overs.fetch_add(1);
      inside.fetch_sub(1);
      sem.release();
    }
  });
  EXPECT_EQ(overs.load(), 0u);
  EXPECT_EQ(sem.available(), 2);
}

TEST_P(PolicyMatrix, CondVarHandshake) {
  qsv::mutex mu(GetParam());
  qsv::condition_variable cv(GetParam());
  int stage = 0;
  std::thread consumer([&] {
    std::unique_lock<qsv::mutex> hold(mu);
    cv.wait(mu, [&] { return stage == 1; });
    stage = 2;
    cv.notify_all();
  });
  {
    std::unique_lock<qsv::mutex> hold(mu);
    stage = 1;
  }
  cv.notify_all();
  {
    std::unique_lock<qsv::mutex> hold(mu);
    cv.wait(mu, [&] { return stage == 2; });
  }
  consumer.join();
  EXPECT_EQ(stage, 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyMatrix,
    ::testing::ValuesIn(std::begin(qsv::kAllWaitPolicies),
                        std::end(qsv::kAllWaitPolicies)),
    [](const auto& info) { return qsv::wait_policy_name(info.param); });

// ------------------------------------------------------- lost wakeups
//
// Two threads hand one lock back and forth under the parking policies:
// park with a 1-poll budget sleeps on nearly every handoff, and
// adaptive's budget falls to its 64-poll floor. The QSV mutex wakes its
// successor's node; the futex mutex, pinned to park, wakes a sleeper on
// its one word. Either way a wake the releaser skips strands the sleeper
// for good — the word it sleeps on has already changed — so a watchdog
// aborts the process (failing ctest) instead of letting the suite hang.
// A short run catches a missing notify fence only some of the time (and
// never through the futex row on x86, whose releasing exchange is a
// full barrier already); the guarded count proves the handoffs stayed
// exclusive.

namespace {
struct Sleeper {
  const char* row;  ///< catalogue row
  qsv::wait_policy policy;
};
}  // namespace

class LostWakeup : public ::testing::TestWithParam<Sleeper> {};

TEST_P(LostWakeup, ContendedHandoffsNeverStrandASleeper) {
  using Clock = std::chrono::steady_clock;
  DefaultsGuard guard;
  qsv::set_default_spin_budget(1);
  const qsv::catalog::Entry* entry = qsv::catalog::find(GetParam().row);
  ASSERT_NE(entry, nullptr);
  const auto mu = entry->make_with(2, GetParam().policy);
  std::uint64_t guarded = 0;
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    std::uint64_t last = 0;
    auto last_move = Clock::now();
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const std::uint64_t now = progress.load(std::memory_order_relaxed);
      if (now != last) {
        last = now;
        last_move = Clock::now();
      } else if (Clock::now() - last_move > std::chrono::seconds(10)) {
        std::fprintf(stderr,
                     "lost wakeup in %s under %s: no handoff for 10 s "
                     "after %llu acquisitions\n",
                     GetParam().row, qsv::wait_policy_name(GetParam().policy),
                     static_cast<unsigned long long>(now));
        std::abort();
      }
    }
  });
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  qsv::harness::ThreadTeam::run(2, [&](std::size_t) {
    while (Clock::now() < deadline) {
      for (int i = 0; i < 256; ++i) {
        std::lock_guard<qsv::catalog::AnyPrimitive> hold(*mu);
        ++guarded;
      }
      progress.fetch_add(256, std::memory_order_relaxed);
    }
  });
  done.store(true, std::memory_order_release);
  watchdog.join();
  EXPECT_EQ(guarded, progress.load());
}

INSTANTIATE_TEST_SUITE_P(
    ParkingPolicies, LostWakeup,
    ::testing::Values(Sleeper{"qsv", qsv::wait_policy::park},
                      Sleeper{"qsv", qsv::wait_policy::adaptive},
                      Sleeper{"futex", qsv::wait_policy::park}),
    [](const auto& info) {
      return std::string(info.param.row) + "_" +
             qsv::wait_policy_name(info.param.policy);
    });

// ---------------------------------------------- pinned facade aliases

TEST(PinnedNames, AreTheOneRuntimeTypeWithAPinnedPolicy) {
  // The historical names still exist and still pin their policy — but
  // they are the single runtime type underneath, so one reference type
  // spans them all.
  qsv::yielding_mutex ym;
  qsv::parking_mutex pm;
  qsv::adaptive_mutex am;
  std::vector<qsv::mutex*> all{&ym, &pm, &am};
  for (qsv::mutex* m : all) {
    m->lock();
    m->unlock();
    EXPECT_TRUE(m->try_lock());
    m->unlock();
  }
}
