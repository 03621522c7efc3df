// futex.hpp — the classic three-state futex mutex on one word.
//
// What "superseded by futex" looks like when the queue mechanism is
// dropped entirely: no queue, no handoff order, one word that says
// free (0), held (1) or held with waiters (2). A contended locker
// announces itself by moving the word to 2 and sleeps until it changes;
// the releaser wakes one sleeper only when it found the word at 2. The
// sleep is platform::RuntimeWait's park policy (std::atomic::wait), the
// same terminal wait every queue-based primitive uses, after a single
// poll: like the classic futex mutex it does not spin on the one word
// every waiter watches.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/cache.hpp"
#include "platform/wait.hpp"
#include "qsv/wait.hpp"

namespace qsv::locks {

/// One CAS on the fast path, one exchange + at most one wake on release.
class FutexMutex {
 public:
  FutexMutex() { waiter_.set_spin_budget(kSpinPolls); }
  FutexMutex(const FutexMutex&) = delete;
  FutexMutex& operator=(const FutexMutex&) = delete;

  void lock() {
    std::uint32_t expected = 0;
    // relaxed: failure order — the slow path below re-CASes with
    // acquire before entering; nothing is read through this value.
    if (state_.compare_exchange_strong(expected, 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;  // fast path: uncontended
    }
    for (;;) {
      // Announce contention (1 -> 2) so the holder knows to wake us,
      // then sleep while the word still reads contended.
      // relaxed: sample only; every path that *enters* does so through
      // an acquire CAS, and every path that sleeps revalidates.
      expected = state_.load(std::memory_order_relaxed);
      if (expected == 0) {
        // relaxed: failure order — loop iterates and resamples.
        if (state_.compare_exchange_weak(expected, 2,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          return;
        }
        continue;
      }
      // relaxed: both orders — 1 -> 2 only announces contention; it
      // enters nothing. Both RMWs act on one word, so either the
      // holder's exchange reads this 2 and wakes a sleeper, or this
      // CAS fails.
      if (expected == 1 &&
          !state_.compare_exchange_weak(expected, 2,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
        continue;
      }
      waiter_.wait_while_equal(state_, 2u);
    }
  }

  bool try_lock() {
    std::uint32_t expected = 0;
    // relaxed: failure order — a failed try_lock reads nothing.
    return state_.compare_exchange_strong(expected, 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    // release pairs with the acquire in lock(); a contended word means
    // someone may be asleep (or about to sleep — the wait re-reads the
    // word before it sleeps, and notify_one fences before it looks for
    // sleepers).
    if (state_.exchange(0, std::memory_order_release) == 2) {
      waiter_.notify_one(state_);
    }
  }

  static constexpr const char* name() noexcept { return "futex"; }

 private:
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> state_{0};
  /// Polls before a waiter sleeps: a constant, so QSV_WAIT's spin
  /// budget does not reach a row that advertises no wait mode.
  static constexpr std::uint32_t kSpinPolls = 1;
  /// Always parks: the row takes no policy, so it advertises no wait
  /// mode. 12 bytes on state_'s line.
  qsv::platform::RuntimeWait waiter_{qsv::wait_policy::park};
};

// The RuntimeWait shares the state word's line.
static_assert(sizeof(FutexMutex) == qsv::platform::kFalseSharingRange);

}  // namespace qsv::locks
