// ticket.hpp — FIFO ticket lock with optional proportional backoff.
//
// fetch&add hands out tickets; a single "now serving" word grants them in
// order. Fair by construction, O(1) RMWs per acquisition, but every
// release invalidates the serving word in *all* waiters' caches, so
// traffic is O(P) per handoff — the precise deficiency queue locks fix.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"

namespace qsv::locks {

/// Plain ticket lock: head-of-line waiter polls continuously.
class TicketLock {
 public:
  TicketLock() noexcept {
    rec_.enroll(name(), this, &qsv::obs::read_member<&TicketLock::tally_>);
  }
  TicketLock(const TicketLock&) = delete;
  TicketLock& operator=(const TicketLock&) = delete;
  ~TicketLock() { rec_.retire(); }  // unregister before the tallies die

  void lock() noexcept {
    // relaxed: ticket draw; the acquire spin on now_serving_ is the
    // synchronization point.
    const std::uint32_t me =
        next_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (now_serving_.load(std::memory_order_acquire) == me) {
      tally_.count_acquire();  // on the line the ticket draw took
      return;
    }
    const std::uint64_t t0 = rec_.wait_begin_ns();
    while (now_serving_.load(std::memory_order_acquire) != me) {
      qsv::platform::cpu_relax();
    }
    rec_.count_contended_acquire(t0);
  }

  bool try_lock() noexcept {
    // acquire: pairs with the previous holder's release store of
    // now_serving_, so a winner is ordered after that critical section
    // (the CAS below is on the dispenser, which no release writes).
    std::uint32_t serving = now_serving_.load(std::memory_order_acquire);
    std::uint32_t expected = serving;
    // Succeed only if no ticket is outstanding: next == serving and we can
    // claim it.
    // relaxed: failure order — a failed try_lock reads nothing.
    if (next_ticket_.compare_exchange_strong(
            expected, serving + 1, std::memory_order_acquire,
            std::memory_order_relaxed) &&
        expected == serving) {
      tally_.count_acquire();
      return true;
    }
    return false;
  }

  void unlock() noexcept {
    rec_.note_release();
    // Only the holder writes now_serving_, so a plain add-and-store works.
    // relaxed: reading back our own exclusive word.
    now_serving_.store(now_serving_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
  }

  /// unlock() touches no per-thread state, so any thread may release a
  /// held ticket lock — the property the cohort combinator needs from
  /// its global tier when no hold transfer is available
  /// (hier/cohort_lock.hpp).
  static constexpr bool kThreadObliviousUnlock = true;

  static constexpr const char* name() noexcept { return "ticket"; }
  static constexpr std::size_t footprint_bytes() noexcept {
    return 2 * sizeof(std::atomic<std::uint32_t>);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;
  // Ticket dispenser and grant word on separate line pairs: waiters'
  // fetch&adds must not steal the line the head waiter is polling.
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> next_ticket_{0};
  /// Holder-owned tallies on the dispenser's line.
  [[no_unique_address]] qsv::obs::Tally tally_;
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> now_serving_{0};
};

/// Ticket lock with proportional backoff: a waiter k positions from the
/// head pauses ~k slots between polls (Anderson 1990, MCS '91 §2.2).
class TicketLockProportional {
 public:
  explicit TicketLockProportional(std::uint32_t slot = 32) noexcept
      : backoff_(slot) {
    rec_.enroll(name(), this,
                &qsv::obs::read_member<&TicketLockProportional::tally_>);
  }
  TicketLockProportional(const TicketLockProportional&) = delete;
  TicketLockProportional& operator=(const TicketLockProportional&) = delete;
  // Unregister before the tallies die.
  ~TicketLockProportional() { rec_.retire(); }

  void lock() noexcept {
    // relaxed: ticket draw; the acquire spin on now_serving_ is the
    // synchronization point.
    const std::uint32_t me =
        next_ticket_.fetch_add(1, std::memory_order_relaxed);
    bool waited = false;
    std::uint64_t t0 = 0;
    for (;;) {
      const std::uint32_t serving =
          now_serving_.load(std::memory_order_acquire);
      if (serving == me) break;
      if (!waited) {
        waited = true;
        t0 = rec_.wait_begin_ns();
      }
      backoff_.wait(me - serving);  // wraparound-safe distance
    }
    if (waited) {
      rec_.count_contended_acquire(t0);
    } else {
      tally_.count_acquire();
    }
  }

  void unlock() noexcept {
    rec_.note_release();
    // relaxed: reading back our own exclusive word.
    now_serving_.store(now_serving_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
  }

  static constexpr const char* name() noexcept { return "ticket+prop"; }
  static constexpr std::size_t footprint_bytes() noexcept {
    return 2 * sizeof(std::atomic<std::uint32_t>);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> next_ticket_{0};
  /// Holder-owned tallies on the dispenser's line.
  [[no_unique_address]] qsv::obs::Tally tally_;
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> now_serving_{0};
  qsv::platform::ProportionalBackoff backoff_;
};

}  // namespace qsv::locks
