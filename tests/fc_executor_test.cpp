// fc_executor_test.cpp — the flat-combining delegation layer: executor
// protocol (inline-first election, combine-pass budget, record aging,
// history-independent record lookup, threads past the record table),
// the counter / queue / map containers built on it, and the
// catalogue-wide property battery over every kCombining entry. The
// contended crews run at the process-default policy and never outnumber
// the CPUs (battery.hpp's rule); the parked-election stress names its
// policies explicitly so the parking path runs whatever QSV_WAIT says.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "battery.hpp"
#include "catalog/catalog.hpp"
#include "combining/fc_executor.hpp"
#include "combining/fc_queue.hpp"
#include "combining/sharded_map.hpp"
#include "combining/striped_accumulator.hpp"
#include "harness/team.hpp"
#include "platform/thread_id.hpp"
#include "workload/critical_section.hpp"

namespace qc = qsv::combining;
namespace cat = qsv::catalog;

namespace {

const std::size_t kThreads = qsv::test::capped_crew(4);
constexpr std::size_t kOps = 2000;
/// The parked-election crew: explicit park/adaptive, so it may outnumber
/// the CPUs.
constexpr std::size_t kParkedThreads = 4;

/// A mutex whose try_lock refuses every other call, so each run() loses
/// its inline election, publishes, and wins its retry: the publication
/// path, deterministically. One thread at a time (the toggle is plain).
struct RefusingMutex {
  void lock() { m.lock(); }
  void unlock() { m.unlock(); }
  bool try_lock() {
    refuse = !refuse;
    return !refuse && m.try_lock();
  }
  std::mutex m;
  bool refuse = false;
};

}  // namespace

// ------------------------------------------------------- executor core

TEST(FcExecutor, RunsClosuresUnderMutualExclusion) {
  qc::FcExecutor<> exec;
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) {
      exec.run([&] { counter.bump(); });
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), kThreads * kOps);
}

TEST(FcExecutor, LinearizablePriorsAreUniqueAndDense) {
  // The sequential oracle for a fetch&add history: N threads x K ops
  // must observe every prior in [0, N*K) exactly once. Duplicated or
  // missing priors mean an op ran outside the exclusion or ran twice —
  // the two failure modes of a broken publication protocol.
  qc::FcCounter counter;
  std::vector<std::vector<std::int64_t>> priors(kThreads);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    priors[rank].reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      priors[rank].push_back(counter.fetch_add(1));
    }
  });
  std::vector<std::int64_t> all;
  for (const auto& p : priors) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kThreads * kOps);
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(counter.read(), static_cast<std::int64_t>(kThreads * kOps));
}

TEST(FcExecutor, EveryOpAppliedExactlyOnceAndBudgetRespected) {
  qc::FcCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) counter.add(1);
  });
  const auto st = counter.stats();
  // Exactly-once: the applied counter equals the op count equals the
  // value (no lost updates, no double application).
  EXPECT_EQ(st.applied, kThreads * kOps);
  EXPECT_EQ(counter.read(), static_cast<std::int64_t>(kThreads * kOps));
  // The combine-pass budget bounds scans per tenure.
  ASSERT_GT(st.tenures, 0u);
  EXPECT_LE(st.passes, st.tenures * qc::FcConfig{}.max_passes);
  // At most one tenure per op (an op never needs two elections), so
  // batching can only shrink the tenure count.
  EXPECT_LE(st.tenures, kThreads * kOps);
}

TEST(FcExecutor, CustomConfigIsHonored) {
  const qc::FcConfig cfg{.max_passes = 1, .eviction_idle = 3};
  qc::FcExecutor<> exec(qsv::get_default_wait_policy(), cfg);
  EXPECT_EQ(exec.config().max_passes, 1u);
  EXPECT_EQ(exec.config().eviction_idle, 3u);
  std::atomic<int> x{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < 500; ++i) {
      exec.run([&] { x.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  EXPECT_EQ(x.load(), static_cast<int>(kThreads) * 500);
  const auto st = exec.stats();
  EXPECT_LE(st.passes, st.tenures * 1u);
}

TEST(FcExecutor, StaleRecordsAreEvictedAndReenlistCleanly) {
  // A one-shot thread's record must stop taxing the scan once it has
  // been idle past the eviction budget — and must come back the moment
  // a thread posts again. Head records are exempt (the head link is
  // the enlist CAS target), so the one-shot record is made interior by
  // posting from the main thread afterwards. A won election publishes
  // nothing, so every run() here goes through RefusingMutex: it loses
  // its first election, enlists, and combines on the retry.
  qc::FcExecutor<RefusingMutex> exec(
      qsv::get_default_wait_policy(),
      qc::FcConfig{.max_passes = 8, .eviction_idle = 2});
  // Main takes its own thread index first: otherwise it could draw the
  // one-shot thread's recycled index, and with it the one-shot record.
  (void)qsv::platform::thread_index();
  int hits = 0;
  std::thread one_shot([&] { exec.run([&] { ++hits; }); });
  one_shot.join();
  EXPECT_EQ(exec.active_records(), 1u);

  // Main enlists at the head; the one-shot record is now interior and
  // ages out after eviction_idle tenures of main-thread traffic.
  exec.run([&] { ++hits; });
  EXPECT_EQ(exec.active_records(), 2u);
  for (int i = 0; i < 7; ++i) exec.run([&] { ++hits; });
  EXPECT_EQ(exec.active_records(), 1u);  // one-shot evicted, main stays
  EXPECT_EQ(hits, 9);

  // A fresh post from another thread re-enlists a new-or-evicted record
  // and is served exactly once.
  std::thread again([&] { exec.run([&] { ++hits; }); });
  again.join();
  EXPECT_EQ(hits, 10);
  EXPECT_EQ(exec.active_records(), 2u);
  const auto st = exec.stats();
  EXPECT_EQ(st.tenures, 10u);  // every run() won its retry
  EXPECT_EQ(st.applied, 10u);
}

TEST(FcExecutor, UncontendedRunsInlineWithoutScanning) {
  // A won election runs the caller's own closure: one tenure and one
  // applied op per run(), no scan, no record on the list.
  qc::FcExecutor<> exec;
  int hits = 0;
  for (int i = 0; i < 100; ++i) exec.run([&] { ++hits; });
  EXPECT_EQ(hits, 100);
  const auto st = exec.stats();
  EXPECT_EQ(st.tenures, 100u);
  EXPECT_EQ(st.applied, 100u);
  EXPECT_EQ(st.passes, 0u);
  EXPECT_EQ(exec.active_records(), 0u);
}

TEST(FcExecutor, ThreadChurnReusesRecords) {
  // Threads that post once and exit must not leave a record each: a
  // later thread inherits the recycled thread index and, with it, the
  // exited thread's idle record, already linked.
  qc::FcExecutor<RefusingMutex> exec;
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    std::thread t([&] { exec.run([&] { ++hits; }); });
    t.join();
  }
  EXPECT_EQ(hits, 200);
  EXPECT_EQ(exec.active_records(), 1u);
}

TEST(FcExecutor, RecordLookupCostIsIndependentOfHistory) {
  // ns per publishing run() on a fresh executor, after the calling
  // thread has published to `history` other executors (each destroyed
  // after one run()). The record lookup must not scan that history. A
  // lookup that did reads ~70x slower after 10,000 executors; the 10x
  // bound leaves room for a loaded or sanitized host, and best-of-5
  // batches keep preemption out of both sides.
  const auto cost_after = [](std::size_t history) {
    double best = 0;
    std::thread t([&] {
      for (std::size_t i = 0; i < history; ++i) {
        qc::FcExecutor<RefusingMutex> used;
        used.run([] {});
      }
      qc::FcExecutor<RefusingMutex> exec;
      std::uint64_t sink = 0;
      exec.run([&] { ++sink; });  // allocate the record untimed
      constexpr int kBatch = 2000;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBatch; ++i) exec.run([&] { ++sink; });
        const double ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            kBatch;
        if (rep == 0 || ns < best) best = ns;
      }
      EXPECT_EQ(sink, 1u + 5u * kBatch);
    });
    t.join();
    return best;
  };
  const double fresh = cost_after(0);
  const double churned = cost_after(10000);
  RecordProperty("fresh_ns", static_cast<int>(fresh));
  RecordProperty("after_10000_ns", static_cast<int>(churned));
  EXPECT_LT(churned, 10.0 * fresh)
      << "fresh " << fresh << " ns, after 10000 executors " << churned
      << " ns";
}

namespace {

/// A mutex with no try_lock: drives FcExecutor's non-election fallback
/// (queue on the lock, serve your own record) and the default-construct
/// LockSlot specialization.
struct NoTryMutex {
  void lock() { m.lock(); }
  void unlock() { m.unlock(); }
  std::mutex m;
};

}  // namespace

TEST(FcExecutor, FallbackPathForMutexesWithoutTryLock) {
  static_assert(!qc::detail::LockHasTry<NoTryMutex>);
  qc::FcExecutor<NoTryMutex> exec;
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) {
      exec.run([&] { counter.bump(); });
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), kThreads * kOps);
}

TEST(FcExecutor, ThreadsPastTheRecordTableRunInline) {
  // The record table has platform::kMaxThreads slots, but nothing caps
  // the live thread count. A thread whose index lies past the table has
  // no record: after a lost election it queues on the lock and runs its
  // own closure, serving any posters that wait. Holder threads start
  // one at a time and keep their indices until one draws an index past
  // the table; that thread runs the checks.
  constexpr std::size_t kRuns = 2000;
  constexpr std::size_t kTable = qsv::platform::kMaxThreads;
  (void)qsv::platform::thread_index();  // main keeps a low index
  qc::FcExecutor<RefusingMutex> refusing;  // every other election lost
  qc::FcExecutor<NoTryMutex> no_try;       // no election at all
  qc::FcExecutor<> shared;                 // contended with main
  qsv::workload::GuardedCounter counter;
  std::size_t refusing_hits = 0;
  std::size_t no_try_hits = 0;
  std::latch both_ready(2);

  struct Holder {
    std::thread thread;
    std::size_t index = 0;
    std::promise<void> leave;
  };
  std::vector<std::unique_ptr<Holder>> holders;
  bool found = false;
  bool capped = false;  // the host refused a thread before the table ran out
  while (!found && holders.size() < 2 * kTable) {
    auto h = std::make_unique<Holder>();
    std::promise<std::size_t> drawn;
    std::future<std::size_t> index = drawn.get_future();
    try {
      h->thread = std::thread([&, drawn = std::move(drawn),
                               leave = h->leave.get_future()]() mutable {
        const std::size_t i = qsv::platform::thread_index();
        drawn.set_value(i);
        if (i >= kTable) {
          for (std::size_t k = 0; k < kRuns; ++k) {
            refusing.run([&] { ++refusing_hits; });
            no_try.run([&] { ++no_try_hits; });
          }
          both_ready.arrive_and_wait();
          for (std::size_t k = 0; k < kRuns; ++k) {
            shared.run([&] { counter.bump(); });
          }
        }
        leave.wait();
      });
    } catch (const std::system_error&) {
      capped = true;
      break;
    }
    h->index = index.get();
    found = h->index >= kTable;
    holders.push_back(std::move(h));
  }
  if (found) {
    both_ready.arrive_and_wait();
    for (std::size_t k = 0; k < kRuns; ++k) {
      shared.run([&] { counter.bump(); });
    }
  }
  // Release in descending index order: the pool hands out the most
  // recently returned index first, so later tests draw low indices
  // again and keep their records.
  std::sort(holders.begin(), holders.end(),
            [](const auto& a, const auto& b) { return a->index > b->index; });
  for (auto& h : holders) {
    h->leave.set_value();
    h->thread.join();
  }

  if (capped) {
    GTEST_SKIP() << "the host refused thread " << holders.size() + 1;
  }
  ASSERT_TRUE(found) << holders.size() << " holders drew no index past "
                     << kTable;
  EXPECT_EQ(refusing_hits, kRuns);
  const auto rs = refusing.stats();
  EXPECT_EQ(rs.tenures, kRuns);
  EXPECT_EQ(rs.applied, kRuns);
  EXPECT_EQ(rs.passes, 0u);
  EXPECT_EQ(refusing.active_records(), 0u);  // nothing was published
  EXPECT_EQ(no_try_hits, kRuns);
  EXPECT_EQ(no_try.stats().applied, kRuns);
  EXPECT_EQ(no_try.active_records(), 0u);
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), 2 * kRuns);
  EXPECT_EQ(shared.stats().applied, 2 * kRuns);
}

TEST(FcExecutor, MutexFaceSerializesWithDelegation) {
  // fc_mutex is both a lock and a delegation server: raw critical
  // sections and run() closures exclude each other on the same
  // underlying mutex.
  qc::FcExecutor<> exec;
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    for (std::size_t i = 0; i < kOps; ++i) {
      if (rank % 2 == 0) {
        std::lock_guard<qc::FcExecutor<>> g(exec);
        counter.bump();
      } else {
        exec.run([&] { counter.bump(); });
      }
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), kThreads * kOps);
}

// ------------------------------------------------ parked elections
//
// The executor is built with an explicit parking policy and a 1-poll
// spin budget, whatever the process default: election losers
// sleep on the tenure epoch on nearly every wait. A poster no tenure
// end wakes is stranded for good, so a watchdog aborts the process
// (failing ctest) instead of letting the suite hang. Each closure burns
// long enough that elections are lost; the guarded counter proves the
// closures stayed exclusive, the per-thread tallies that each ran
// exactly once before its run() returned.

class ParkedElections : public ::testing::TestWithParam<qsv::wait_policy> {};

TEST_P(ParkedElections, EveryOpRunsExactlyOnce) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kStressOps = 20000;
  const std::uint32_t saved_budget = qsv::get_default_spin_budget();
  qsv::set_default_spin_budget(1);
  qc::FcExecutor<> exec(GetParam());
  qsv::set_default_spin_budget(saved_budget);

  qsv::workload::GuardedCounter counter;
  std::vector<std::uint64_t> tally(kParkedThreads, 0);  // under exec
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> mismatches{0};
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
                     "stranded poster under %s: no run() returned for 10 s "
                     "after %llu ops\n",
                     qsv::wait_policy_name(GetParam()),
                     static_cast<unsigned long long>(now));
        std::abort();
      }
    }
  });
  qsv::harness::ThreadTeam::run(kParkedThreads, [&](std::size_t rank) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kStressOps; ++i) {
      exec.run([&] {
        counter.bump();
        ++tally[rank];
        qsv::workload::busy_wait_ns(200);
      });
      if (tally[rank] != i + 1) ++bad;
      if (i % 256 == 255) progress.fetch_add(256, std::memory_order_relaxed);
    }
    mismatches.fetch_add(bad, std::memory_order_relaxed);
  });
  done.store(true, std::memory_order_release);
  watchdog.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), kParkedThreads * kStressOps);
  for (std::size_t r = 0; r < kParkedThreads; ++r) {
    EXPECT_EQ(tally[r], kStressOps);
  }
  const auto st = exec.stats();
  EXPECT_EQ(st.applied, kParkedThreads * kStressOps);
  EXPECT_LE(st.passes, st.tenures * qc::FcConfig{}.max_passes);
  if (qsv::platform::available_cpus() >= 2) {
    EXPECT_GT(st.passes, 0u);  // some elections were lost and combined
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParkingPolicies, ParkedElections,
    ::testing::Values(qsv::wait_policy::park, qsv::wait_policy::adaptive),
    [](const auto& info) { return qsv::wait_policy_name(info.param); });

TEST(PlainExecutor, SameSurfaceNoCombining) {
  qc::PlainExecutor<> exec;
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) {
      exec.run([&] { counter.bump(); });
    }
  });
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), kThreads * kOps);
  const auto st = exec.stats();
  EXPECT_EQ(st.tenures, 0u);
  EXPECT_EQ(st.applied, 0u);
}

// ------------------------------------------------------------ queue

TEST(FcMpmcQueue, SequentialOracle) {
  // Single-threaded interleaving against std::deque: FIFO order,
  // capacity refusal, emptiness refusal.
  qc::FcMpmcQueue<int> q(4, qsv::get_default_wait_policy());
  EXPECT_EQ(q.capacity(), 4u);
  std::deque<int> oracle;
  int x = 0;
  for (int round = 0; round < 200; ++round) {
    const bool push = (round * 2654435761u) % 3 != 0;
    if (push) {
      const bool ok = q.try_push(round);
      const bool oracle_ok = oracle.size() < 4;
      ASSERT_EQ(ok, oracle_ok) << "round " << round;
      if (ok) oracle.push_back(round);
    } else {
      const bool ok = q.try_pop(x);
      ASSERT_EQ(ok, !oracle.empty()) << "round " << round;
      if (ok) {
        ASSERT_EQ(x, oracle.front());
        oracle.pop_front();
      }
    }
    ASSERT_EQ(q.size(), oracle.size());
  }
}

TEST(FcMpmcQueue, ConservationUnderConcurrency) {
  qc::FcMpmcQueue<std::uint64_t> q(64, qsv::get_default_wait_policy());
  std::atomic<std::uint64_t> pushed{0}, popped{0}, pop_sum{0};
  std::atomic<std::uint64_t> push_sum{0};
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    std::uint64_t my_pushed = 0, my_popped = 0, my_pop_sum = 0,
                  my_push_sum = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::uint64_t v = rank * kOps + i + 1;
      if (i % 2 == 0) {
        if (q.try_push(v)) {
          ++my_pushed;
          my_push_sum += v;
        }
      } else {
        std::uint64_t out = 0;
        if (q.try_pop(out)) {
          ++my_popped;
          my_pop_sum += out;
        }
      }
    }
    pushed.fetch_add(my_pushed);
    popped.fetch_add(my_popped);
    pop_sum.fetch_add(my_pop_sum);
    push_sum.fetch_add(my_push_sum);
  });
  // Drain; every pushed value must come out exactly once.
  std::uint64_t out = 0;
  std::uint64_t drained = 0, drain_sum = 0;
  while (q.try_pop(out)) {
    ++drained;
    drain_sum += out;
  }
  EXPECT_EQ(pushed.load(), popped.load() + drained);
  EXPECT_EQ(push_sum.load(), pop_sum.load() + drain_sum);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pushed(), pushed.load());
  EXPECT_EQ(q.popped(), popped.load() + drained);
}

TEST(FcMpmcQueue, BlockingPushPopAcrossATinyRing) {
  // Producer and consumer forced through a 2-slot ring: both sides must
  // block (on the eventcounts, outside the executor) and hand every
  // item over in order. A combiner that slept on queue state would
  // deadlock here.
  constexpr std::uint64_t kItems = 2000;
  const qsv::test::CrewPolicy policy(2);  // the producer and the consumer
  qc::FcMpmcQueue<std::uint64_t> q(2, qsv::get_default_wait_policy());
  std::vector<std::uint64_t> received;
  received.reserve(kItems);
  qsv::harness::ThreadTeam::run(2, [&](std::size_t rank) {
    if (rank == 0) {
      for (std::uint64_t i = 0; i < kItems; ++i) q.push(i);
    } else {
      for (std::uint64_t i = 0; i < kItems; ++i) received.push_back(q.pop());
    }
  });
  ASSERT_EQ(received.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[i], i);  // single producer: FIFO is total order
  }
  EXPECT_EQ(q.size(), 0u);
}

// -------------------------------------------------------------- map

TEST(ShardedMap, BasicOperations) {
  qc::ShardedMap<std::uint64_t, std::uint64_t> m(6,
                                                 qsv::get_default_wait_policy());
  EXPECT_EQ(m.shard_count(), 8u);  // rounded to a power of two
  EXPECT_TRUE(m.insert_or_assign(1, 10));
  EXPECT_FALSE(m.insert_or_assign(1, 11));  // overwrite, not insert
  std::uint64_t v = 0;
  EXPECT_TRUE(m.find(1, v));
  EXPECT_EQ(v, 11u);
  EXPECT_FALSE(m.find(2, v));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(ShardedMap, PerKeyLinearizabilityUnderConcurrency) {
  // Disjoint key ranges per thread: every thread's writes must be
  // exactly what it reads back, and the final size must account for
  // every surviving key. Runs on 2 shards so several threads share a
  // shard and the executor actually combines.
  qc::ShardedMap<std::uint64_t, std::uint64_t> m(2,
                                                 qsv::get_default_wait_policy());
  m.reserve(kThreads * kOps);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    const std::uint64_t base = rank * kOps;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(m.insert_or_assign(base + i, base + i + 7));
    }
    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(m.find(base + i, v));
      ASSERT_EQ(v, base + i + 7);
    }
    for (std::uint64_t i = 0; i < kOps; i += 2) {
      ASSERT_TRUE(m.erase(base + i));
    }
  });
  EXPECT_EQ(m.size(), kThreads * kOps / 2);
  std::uint64_t v = 0;
  EXPECT_FALSE(m.find(0, v));      // evens erased
  EXPECT_TRUE(m.find(1, v));       // odds survive
  EXPECT_EQ(v, 8u);
}

// ------------------------------------------------------- accumulator

TEST(StripedAccumulator, SumsAcrossStripes) {
  qc::StripedAccumulator acc(4);
  EXPECT_EQ(acc.stripes(), 4u);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kOps; ++i) acc.add(1);
  });
  EXPECT_EQ(acc.read(), static_cast<std::int64_t>(kThreads * kOps));
}

TEST(StripedAccumulator, SingleStripePriorsAreGlobal) {
  // stripes == 1 collapses to the old flat counter: priors are global,
  // unique, and dense.
  qc::StripedAccumulator acc(1);
  ASSERT_EQ(acc.stripes(), 1u);
  std::vector<std::vector<std::int64_t>> priors(kThreads);
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
    for (std::size_t i = 0; i < 500; ++i) {
      priors[rank].push_back(acc.fetch_add(1));
    }
  });
  std::vector<std::int64_t> all;
  for (const auto& p : priors) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<std::int64_t>(i));
  }
}

// -------------------------------------- catalogue-wide property test

namespace {

/// Drive whatever faces the entry advertises, concurrently, with an
/// oracle per face — the topology_test pattern extended to containers.
void combining_battery(const cat::Entry& e) {
  auto p = e.make(kThreads);
  ASSERT_NE(p, nullptr) << e.name;
  EXPECT_TRUE(p->capabilities() & cat::kCombining) << e.name;

  if (e.has(cat::kQueue)) {
    std::atomic<std::uint64_t> pushed{0}, popped{0};
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
      std::uint64_t my_pushed = 0, my_popped = 0;
      std::uint64_t out = 0;
      for (std::size_t i = 0; i < 500; ++i) {
        if ((i + rank) % 2 == 0) {
          if (p->try_push(rank + 1)) ++my_pushed;
        } else if (p->try_pop(out)) {
          ++my_popped;
        }
      }
      pushed.fetch_add(my_pushed);
      popped.fetch_add(my_popped);
    });
    std::uint64_t out = 0, drained = 0;
    while (p->try_pop(out)) ++drained;
    EXPECT_EQ(pushed.load(), popped.load() + drained) << e.name;
  } else if (e.has(cat::kMap)) {
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
      const std::uint64_t base = rank * 500;
      std::uint64_t v = 0;
      for (std::uint64_t i = 0; i < 500; ++i) {
        ASSERT_TRUE(p->insert_or_assign(base + i, base + i)) << e.name;
        ASSERT_TRUE(p->find(base + i, v)) << e.name;
        ASSERT_EQ(v, base + i) << e.name;
      }
      for (std::uint64_t i = 0; i < 500; ++i) {
        ASSERT_TRUE(p->erase(base + i)) << e.name;
      }
    });
  } else if (e.has(cat::kAccumulator)) {
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
      for (std::size_t i = 0; i < 500; ++i) p->add(1);
    });
    EXPECT_EQ(p->total(), static_cast<std::int64_t>(kThreads) * 500)
        << e.name;
  } else {
    // Executors without a container face (fc-mutex) expose the lock
    // face; mutual exclusion is their property.
    ASSERT_TRUE(e.has(cat::kExclusive)) << e.name;
    qsv::workload::GuardedCounter counter;
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
      for (std::size_t i = 0; i < 500; ++i) {
        p->lock();
        counter.bump();
        p->unlock();
      }
    });
    EXPECT_TRUE(counter.consistent()) << e.name;
    EXPECT_EQ(counter.value(), kThreads * 500) << e.name;
  }
}

}  // namespace

TEST(CombiningCatalogue, RegistersTheWholeLayer) {
  const auto entries = cat::filter(cat::kCombining);
  EXPECT_GE(entries.size(), 8u);
  std::size_t queues = 0, maps = 0, accs = 0;
  for (const auto* e : entries) {
    if (e->has(cat::kQueue)) ++queues;
    if (e->has(cat::kMap)) ++maps;
    if (e->has(cat::kAccumulator)) ++accs;
  }
  EXPECT_GE(queues, 2u);  // fc + plain control
  EXPECT_GE(maps, 3u);    // fc, plain control, cohort composition
  EXPECT_GE(accs, 2u);    // fc-counter, striped-acc
}

TEST(CombiningCatalogue, EveryEntrySurvivesItsFaceBattery) {
  for (const auto* e : cat::filter(cat::kCombining)) {
    SCOPED_TRACE(e->name);
    combining_battery(*e);
  }
}

TEST(CombiningCatalogue, WaitPoliciesConstructEveryEntry) {
  // Every combining entry is runtime wait-configurable (or ignores the
  // policy); make_with must produce a working instance for all four.
  for (const auto* e : cat::filter(cat::kCombining)) {
    for (const qsv::wait_policy p : qsv::kAllWaitPolicies) {
      SCOPED_TRACE(std::string(e->name) + " / " + qsv::wait_policy_name(p));
      auto prim = e->make_with(2, p);
      ASSERT_NE(prim, nullptr);
      if (e->has(cat::kAccumulator)) {
        prim->add(1);
        EXPECT_EQ(prim->total(), 1);
      } else if (e->has(cat::kQueue)) {
        EXPECT_TRUE(prim->try_push(9));
        std::uint64_t v = 0;
        EXPECT_TRUE(prim->try_pop(v));
        EXPECT_EQ(v, 9u);
      } else if (e->has(cat::kMap)) {
        EXPECT_TRUE(prim->insert_or_assign(3, 4));
        std::uint64_t v = 0;
        EXPECT_TRUE(prim->find(3, v));
        EXPECT_EQ(v, 4u);
      } else {
        prim->lock();
        prim->unlock();
      }
    }
  }
}
