// battery.hpp — the crew-sizing rule every contended test follows, and
// the shared batteries: mutual exclusion, reader-writer invariant and
// barrier phase integrity.
//
// The rule. A queue lock hands over in FIFO order to a waiter spinning
// on its own node, so a handoff to a preempted spinner stalls every
// waiter queued behind it. A test never runs more pure-spinning threads
// than platform::available_cpus(), hardwired spinners included; a
// larger crew runs only under a policy that gives the processor away
// (spin_yield or park), on primitives that honor one.
//
// validate_test drives the exclusion battery over every catalogue lock
// row; suites call it directly only for configurations the catalogue
// cannot build.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/team.hpp"
#include "platform/affinity.hpp"
#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/thread_id.hpp"
#include "qsv/wait.hpp"
#include "validate/checkers.hpp"
#include "validate/shaker.hpp"
#include "workload/critical_section.hpp"
#include "workload/rw_mix.hpp"

namespace qsv::test {

/// Largest crew a battery starts. Slot-indexed state (thread indices,
/// Anderson slots, cohort tables) holds kMaxThreads threads at once, so
/// even an oversubscribed crew, twice a dedicated one, keeps half of it
/// free for the process's other threads.
inline constexpr std::size_t kCrewCap = qsv::platform::kMaxThreads / 4;
static_assert(kCrewCap >= 2, "an oversubscribed crew needs a few slots");

/// One thread per allowed CPU, up to kCrewCap: the largest crew that may
/// pure-spin.
inline std::size_t dedicated_crew() {
  return std::min(qsv::platform::available_cpus(), kCrewCap);
}

/// At most `n` threads, and never more than may pure-spin.
inline std::size_t capped_crew(std::size_t n) {
  return std::min(n, dedicated_crew());
}

/// Twice the dedicated crew and at least four: a crew that must yield or
/// park. At most 2 * kCrewCap threads.
inline std::size_t oversubscribed_crew() {
  return std::max<std::size_t>(2 * dedicated_crew(), 4);
}

/// Per-thread quota so that `threads` threads together perform at
/// least `total` operations, whatever the host.
inline std::size_t quota(std::size_t total, std::size_t threads) {
  return (total + threads - 1) / threads;
}

/// For the guard's lifetime, a pure-spin process default becomes
/// spin_yield when a fixed crew of `threads` (a barrier team, a
/// producer/consumer split) outnumbers the CPUs; any other default
/// stands. Construct the primitives under test inside its scope.
class CrewPolicy {
 public:
  explicit CrewPolicy(std::size_t threads)
      : saved_(qsv::get_default_wait_policy()) {
    if (saved_ == qsv::wait_policy::spin && threads > dedicated_crew()) {
      qsv::set_default_wait_policy(qsv::wait_policy::spin_yield);
    }
  }
  CrewPolicy(const CrewPolicy&) = delete;
  CrewPolicy& operator=(const CrewPolicy&) = delete;
  ~CrewPolicy() { qsv::set_default_wait_policy(saved_); }

 private:
  qsv::wait_policy saved_;
};

/// How the exclusion battery's threads take the lock.
enum class Acquire {
  kLock,       ///< lock()
  kSpinOnTry,  ///< spin on try_lock() until it succeeds
};

/// The mutual-exclusion battery: `threads` threads each acquire `lock`
/// `ops` times, optionally perturbed before the acquisition and inside
/// the critical section. Two oracles watch the critical section — the
/// torn-counter detector (GuardedCounter) and the overlap detector
/// (ExclusionChecker) — and every thread must complete its quota.
template <Acquire kHow = Acquire::kLock, typename Lock>
void exclusion_battery(
    Lock& lock, std::size_t threads, std::size_t ops,
    qsv::validate::ShakeProfile shake = qsv::validate::ShakeProfile::off()) {
  qsv::workload::GuardedCounter counter;
  qsv::validate::ExclusionChecker checker;
  std::vector<std::size_t> completed(threads, 0);
  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    qsv::validate::ScheduleShaker shaker(shake, /*seed=*/0xC0FFEE, rank);
    for (std::size_t i = 0; i < ops; ++i) {
      shaker.maybe_perturb();
      if constexpr (kHow == Acquire::kLock) {
        lock.lock();
      } else {
        while (!lock.try_lock()) qsv::platform::cpu_relax();
      }
      // Bumped outside the checker's bracket: the checker's acq_rel CAS
      // orders each bracket after the one before, so a bump inside it
      // would hide from TSan a lock that fails to order its critical
      // sections.
      counter.bump();
      checker.enter();
      shaker.maybe_perturb();  // perturb *inside* the critical section
      checker.exit();
      lock.unlock();
      completed[rank] += 1;
    }
  });
  EXPECT_TRUE(checker.clean()) << checker.violations() << " overlaps";
  EXPECT_EQ(checker.entries(), threads * ops);
  EXPECT_TRUE(counter.consistent());
  EXPECT_EQ(counter.value(), threads * ops);
  for (std::size_t rank = 0; rank < threads; ++rank) {
    EXPECT_EQ(completed[rank], ops) << "rank " << rank;
  }
}

/// The reader-writer battery: `threads` threads each make `ops` entries,
/// a `read_ratio` share of them shared. Writers advance versioned cells
/// and readers check snapshot consistency, so any writer/writer or
/// reader/writer overlap tears a snapshot, and every write must land.
template <typename Lock>
void rw_battery(Lock& lock, std::size_t threads, std::size_t ops,
                double read_ratio) {
  qsv::workload::VersionedCells cells;
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> writes{0};
  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    qsv::workload::RwMix mix(read_ratio, 31 * rank + 7);
    for (std::size_t i = 0; i < ops; ++i) {
      if (mix.next_is_read()) {
        lock.lock_shared();
        if (!cells.read_consistent()) torn.fetch_add(1);
        lock.unlock_shared();
      } else {
        lock.lock();
        cells.write();
        writes.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(cells.version(), writes.load());
}

/// The barrier battery: each of `team` threads stamps its phase, crosses
/// a `Barrier(team, args...)` and checks every teammate's stamp, so a
/// single early or late release shows up as a stale stamp. The barrier
/// is built under CrewPolicy(team).
template <typename Barrier, typename... Args>
void phase_integrity(std::size_t team, std::size_t episodes, Args... args) {
  const CrewPolicy policy(team);
  Barrier barrier(team, args...);
  qsv::platform::PaddedArray<std::atomic<std::uint64_t>> stamps(team);
  for (std::size_t i = 0; i < team; ++i) stamps[i].store(0);
  std::atomic<std::uint64_t> failures{0};
  qsv::harness::ThreadTeam::run(team, [&](std::size_t rank) {
    for (std::size_t e = 1; e <= episodes; ++e) {
      stamps[rank].store(e, std::memory_order_release);
      barrier.arrive_and_wait(rank);
      for (std::size_t t = 0; t < team; ++t) {
        if (stamps[t].load(std::memory_order_acquire) != e) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      barrier.arrive_and_wait(rank);  // close the read phase
    }
  });
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace qsv::test
