// wait.hpp — the waiting layer: how a blocked thread waits for its grant.
//
// The original 1991 mechanism spins in user space because that is all the
// hardware offered. The calibration band notes the mechanism was
// "superseded by modern futex/atomics"; that supersession is exactly the
// terminal wait, and this header is where it lives. Every queue-based
// primitive in libqsv carries one RuntimeWait, which dispatches at
// runtime on the qsv::wait_policy (include/qsv/wait.hpp) chosen at
// construction, so the identical protocol can wait by
//   * pure spinning            (spin: 1991 behaviour, dedicated processors),
//   * spin-then-yield          (spin_yield: time-shared machines),
//   * spin-then-park           (park: futex via std::atomic::wait),
//   * calibrated spin, park    (adaptive: the budget follows an EWMA of
//                               observed wake latency).
// The spin fast path is inlined behind one predictable branch per wait
// entry — not one per poll — and the non-spin paths live out of line.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/arch.hpp"
#include "qsv/wait.hpp"

namespace qsv::platform {

/// One waiting object that is any of the four qsv::wait_policy
/// strategies, chosen at construction. A RuntimeWait blocks the calling
/// thread while `flag == expected` (or until a predicate holds) and is
/// woken by a releaser that stores a new value and calls `notify_*` on
/// the same instance.
///
/// adaptive calibrates its spin budget per instance: rationale — parking
/// costs a futex round trip (~2–10us). If grants typically arrive sooner
/// than that, spinning through them is cheaper than sleeping; if they
/// typically take longer, every poll past the park cost is burned CPU
/// (and on an oversubscribed machine, CPU stolen from the very thread
/// being waited on). So the budget tracks 2x the typical observed wake
/// latency, clamped to [kMinSpinPolls, kMaxSpinPolls]: short-grant
/// instances converge to near-pure spinning, long-grant instances to
/// spinning only about as long as a park costs, then sleeping. A wait
/// that outlives the budget records the saturating sample
/// kParkSamplePolls, so one oversubscribed phase quickly drags the budget
/// down to the park regime and a later dedicated phase pulls it back up.
/// The EWMA word is one per instance, shared by every thread waiting on
/// it and updated with relaxed RMWs; races between samples are benign
/// (it is a heuristic, not a protocol state).
class RuntimeWait {
 public:
  /// Calibration floor: never burn fewer polls than a cache miss is
  /// worth measuring against.
  static constexpr std::uint32_t kMinSpinPolls = 64;
  /// Calibration ceiling ~ the cost of a park/unpark round trip; the
  /// budget saturates here because spinning longer than parking costs
  /// can never win.
  static constexpr std::uint32_t kMaxSpinPolls = 8192;
  /// Sample recorded when a wait had to park (its true latency is
  /// unknown, only "longer than the budget").
  static constexpr std::uint32_t kParkSamplePolls = kMaxSpinPolls;
  /// EWMA smoothing: alpha = 1/8 per sample.
  static constexpr std::uint32_t kEwmaShift = 3;

  /// Defaults to the process-wide policy (qsv::get_default_wait_policy,
  /// seeded from QSV_WAIT) and the process-wide spin budget.
  RuntimeWait() : RuntimeWait(qsv::get_default_wait_policy()) {}

  explicit RuntimeWait(qsv::wait_policy policy) : policy_(policy) {
    set_spin_budget(qsv::get_default_spin_budget());
  }
  /// One instance per primitive: its calibration is the primitive's.
  RuntimeWait(const RuntimeWait&) = delete;
  RuntimeWait& operator=(const RuntimeWait&) = delete;

  qsv::wait_policy policy() const noexcept { return policy_; }

  /// The spin budget in polls: how long spin_yield and park spin before
  /// giving the processor away. For adaptive this is the live
  /// calibrated value — 2x the smoothed wake latency, clamped — which
  /// moves as waits are observed.
  std::uint32_t spin_budget() const noexcept {
    if (policy_ != qsv::wait_policy::adaptive) {
      // relaxed: tuning knob — shapes spin length only, never safety.
      return spin_budget_.load(std::memory_order_relaxed);
    }
    // relaxed: calibration estimate — any recent value is as good as
    // the latest; the budget only shapes spin length, never safety.
    const std::uint32_t ewma = ewma_polls_.load(std::memory_order_relaxed);
    const std::uint32_t b = ewma >= kMaxSpinPolls / 2 ? kMaxSpinPolls
                                                      : 2 * ewma;
    return b < kMinSpinPolls ? kMinSpinPolls : b;
  }
  /// Set the spin_yield/park budget and reseed adaptive calibration so
  /// the next wait spins ~`polls` before parking (the EWMA keeps
  /// adapting from there).
  void set_spin_budget(std::uint32_t polls) noexcept {
    if (polls == 0) polls = 1;
    // relaxed: tuning knobs (see spin_budget()).
    spin_budget_.store(polls, std::memory_order_relaxed);
    // relaxed: as above.
    ewma_polls_.store(polls / 2, std::memory_order_relaxed);
  }

  /// Block while `flag == expected`. A parking policy sleeps on
  /// `expected` itself, never on a value loaded afresh: a word that
  /// comes back to an earlier value (the futex mutex's 2, 0, 2, 0)
  /// could otherwise put a waiter to sleep on a value that already
  /// releases it, after the wake for it was sent.
  template <typename T>
  void wait_while_equal(const std::atomic<T>& flag, T expected) noexcept {
    wait(
        [&flag, expected]() noexcept {
          return flag.load(std::memory_order_acquire) != expected;
        },
        [&flag, expected]() noexcept {
          flag.wait(expected, std::memory_order_acquire);
        });
  }

  /// Predicate wait for protocol states that are not a single equality
  /// (masked bits, counters): spin on `done()`, and beyond the budget
  /// yield — or, for parking policies, sleep on `word`, whose writers
  /// must notify through this object. `word` must change whenever
  /// `done()` can become true, and never come back to an earlier
  /// value (epochs and counters do not).
  template <typename T, typename Pred>
  void wait_until(const std::atomic<T>& word, Pred done) noexcept {
    wait(done, [&word, &done]() noexcept {
      const T v = word.load(std::memory_order_acquire);
      if (!done()) word.wait(v, std::memory_order_acquire);
    });
  }

  /// Wakes are no-ops for the polling policies (their stores are
  /// observed by spinning) — one predictable branch, zero syscalls.
  ///
  /// The parking wake fences first. libstdc++'s atomic notify skips
  /// FUTEX_WAKE when a seq_cst load of its waiter count reads zero, and
  /// the releaser's grant (a release store to `flag`) may be reordered
  /// after that load (store buffering): the notifier reads no sleeper
  /// while the waiter, already counted, reads the old flag and sleeps
  /// for good. Only the parking policies pay for the fence.
  template <typename T>
  void notify_one(std::atomic<T>& flag) noexcept {
    if (may_park(policy_)) {
      store_load_fence();
      flag.notify_one();
    }
  }
  template <typename T>
  void notify_all(std::atomic<T>& flag) noexcept {
    notify_all(policy_, flag);
  }
  /// The same wake for a releaser that carries its instance's policy
  /// in its own queue node, so a handoff reads nothing of the instance.
  template <typename T>
  static void notify_all(qsv::wait_policy policy,
                         std::atomic<T>& flag) noexcept {
    if (may_park(policy)) {
      store_load_fence();
      flag.notify_all();
    }
  }

  const char* name() const noexcept { return qsv::wait_policy_name(policy_); }

 private:
  static bool may_park(qsv::wait_policy p) noexcept {
    return p == qsv::wait_policy::park || p == qsv::wait_policy::adaptive;
  }

  /// Both waits: spin on `done()`, past the budget yield or `sleep()`.
  /// Under a chk scheduler (test builds only) the wait is handed to the
  /// scheduler whole — this entry IS the model checker's seam, the one
  /// point every primitive's terminal wait already funnels through.
  template <typename Pred, typename Sleep>
  void wait(Pred done, Sleep sleep) noexcept {
    if (chk_hook::active()) {
      chk_hook::block(done);
      return;
    }
    if (policy_ == qsv::wait_policy::spin) {
      while (!done()) cpu_relax();
      return;
    }
    wait_slow(done, sleep);
  }

  /// Everything past the inlined spin fast path: spin the budget
  /// (calibrated for adaptive), then yield or park.
  template <typename Pred, typename Sleep>
  void wait_slow(Pred& done, Sleep& sleep) noexcept {
    const bool calibrate = policy_ == qsv::wait_policy::adaptive;
    const std::uint32_t budget = spin_budget();
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (done()) {
        if (calibrate) record(i);
        return;
      }
      cpu_relax();
    }
    if (calibrate) record(kParkSamplePolls);
    if (!may_park(policy_)) {
      while (!done()) thread_yield();
      return;
    }
    while (!done()) sleep();
  }

  /// Feed one observed wake latency (in polls) into adaptive's EWMA.
  void record(std::uint32_t polls) noexcept {
    // relaxed: EWMA update — a lost race drops one sample, which the
    // smoothing absorbs by design; ordering buys nothing here.
    const std::uint32_t ewma = ewma_polls_.load(std::memory_order_relaxed);
    const std::int32_t delta =
        static_cast<std::int32_t>(polls) - static_cast<std::int32_t>(ewma);
    // Arithmetic shift (C++20-defined on negatives) gives the EWMA
    // step; the +1 nudge keeps tiny positive deltas from stalling the
    // climb out of the all-zero-sample floor.
    std::int32_t step = delta >> kEwmaShift;
    if (step == 0 && delta > 0) step = 1;
    ewma_polls_.store(static_cast<std::uint32_t>(
                          static_cast<std::int32_t>(ewma) + step),
                      std::memory_order_relaxed);  // relaxed: as above
  }

  const qsv::wait_policy policy_;
  /// Tunable budget for spin_yield/park.
  std::atomic<std::uint32_t> spin_budget_{0};
  /// adaptive's smoothed wake latency in polls.
  std::atomic<std::uint32_t> ewma_polls_{0};
};

/// Spin 4,096 polls, then yield until `done()`. For the writer-side
/// drains that must never park whatever the instance's policy: the
/// readers they wait out count themselves out with a plain RMW and
/// never notify.
template <typename Pred>
void spin_yield_until(Pred done) noexcept {
  if (chk_hook::active()) {
    chk_hook::block(done);
    return;
  }
  for (std::uint32_t i = 0; i < 4096; ++i) {
    if (done()) return;
    cpu_relax();
  }
  while (!done()) thread_yield();
}

}  // namespace qsv::platform
