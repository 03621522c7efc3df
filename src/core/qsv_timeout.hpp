// qsv_timeout.hpp — exclusive entry with bounded impatience.
//
// QSV's timeout mode lets a queued waiter withdraw: it publishes its
// predecessor in its own node and marks the node abandoned; whichever
// thread was (or becomes) its successor splices around the corpse and
// reclaims it. The protocol is the CLH-style implicit queue — every
// waiter spins on its predecessor's node — extended with the
// {waiting, released, abandoned} state machine (cf. Scott & Scherer's
// later try-lock treatment; here it is QSV's reconstructed abort mode).
//
// Guarantees: FIFO among waiters that do not time out; O(1) amortized
// node reclamation; a timed-out waiter leaves no trace once its successor
// has passed it. Experiment F9 measures throughput under abort storms.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/node_arena.hpp"
#include "platform/timing.hpp"
#include "platform/wait.hpp"

namespace qsv::core {

class QsvTimeoutMutex {
 public:
  /// The waiting strategy is per-instance, fixed at construction, and
  /// governs the *unbounded* wait (lock()). Bounded waits must keep
  /// reading the clock, so they never park: beyond the spin budget
  /// they interleave yields with the deadline checks instead (for
  /// every policy but pure spin).
  explicit QsvTimeoutMutex(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {
    Node* sentinel = Arena::instance().acquire();
    // relaxed: single-threaded construction; publication of the mutex
    // object itself is the caller's problem (as for any std type).
    sentinel->state.store(kReleased, std::memory_order_relaxed);
    var_.store(sentinel, std::memory_order_relaxed);  // relaxed: as above
    rec_.enroll(name(), this,
                &qsv::obs::read_member<&QsvTimeoutMutex::tally_>);
  }
  QsvTimeoutMutex(const QsvTimeoutMutex&) = delete;
  QsvTimeoutMutex& operator=(const QsvTimeoutMutex&) = delete;

  ~QsvTimeoutMutex() {
    rec_.retire();  // unregister before the tallies die
    // Quiescent teardown: reclaim the chain hanging off the variable
    // (the released sentinel plus any abandoned nodes threaded onto it).
    // relaxed: destructor runs quiescent — no concurrent users by
    // precondition, so no ordering is needed anywhere in the teardown.
    Node* n = var_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      // relaxed: quiescent teardown (as above).
      Node* pred = n->state.load(std::memory_order_relaxed) == kAbandoned
                       ? n->pred.load(std::memory_order_relaxed)
                       : nullptr;
      Arena::instance().release(n);
      n = pred;
    }
  }

  /// Unbounded acquire (never gives up).
  void lock() { (void)acquire(kNoDeadline); }

  /// Non-blocking acquire: a zero-deadline bounded acquire. We still
  /// enqueue (the queue is how this protocol talks), but withdraw via
  /// the abandon path the moment the predecessor is seen still holding
  /// — no polling loop, no clock read.
  bool try_lock() { return acquire(kImmediate); }

  /// Bounded acquire: true if the variable was acquired before `timeout`
  /// elapsed, false if we withdrew.
  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& timeout) {
    // Compare in floating nanoseconds first: duration_cast of a huge
    // coarse duration (hours::max() and friends) into int64 ns is
    // signed overflow. Anything at or beyond the ns range (~292 years)
    // is an unbounded wait, not an instant refusal.
    const auto ns_approx = std::chrono::duration_cast<
        std::chrono::duration<long double, std::nano>>(timeout);
    if (ns_approx.count() <= 0.0L) return acquire(kImmediate);
    if (ns_approx.count() >= static_cast<long double>(
                                 std::chrono::nanoseconds::max().count())) {
      return acquire(kNoDeadline);
    }
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout);
    return acquire(qsv::platform::now_ns() +
                   static_cast<std::uint64_t>(ns.count()));
  }

  /// Bounded acquire against an absolute deadline on any std clock
  /// (TimedLockable). The wait itself runs on the platform monotonic
  /// clock; the caller's clock is only read to size the wait.
  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& abs) {
    const auto now = Clock::now();
    if (abs <= now) return acquire(kImmediate);
    return try_lock_for(abs - now);
  }

  void unlock() {
    Node* mine = Held::pop(this);
    // Successor (spinning on our node) sees the release and reclaims it.
    // The releaser cannot tell handoff from free release (successors
    // are implicit in this protocol): only the hold watermark updates,
    // and only a waited acquisition left a cold block in its node. The
    // release reads only its own node, and reads it before the store
    // that hands the node to the successor.
    if (mine->cold != nullptr) mine->cold->close_hold();
    const qsv::wait_policy policy = mine->policy;
    mine->state.store(kReleased, std::memory_order_release);
    // A parked successor needs the wake. It may already have observed
    // the store, taken the variable, and recycled the node — benign:
    // arena nodes are never unmapped, and every wait re-checks its
    // predicate on spurious wakes.
    qsv::platform::RuntimeWait::notify_all(policy, mine->state);
  }

  static constexpr const char* name() noexcept { return "qsv-timeout"; }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  static constexpr std::uint32_t kWaiting = 0;
  static constexpr std::uint32_t kReleased = 1;
  static constexpr std::uint32_t kAbandoned = 2;
  static constexpr std::uint64_t kNoDeadline = ~0ULL;
  /// Sentinel deadline for try_lock: withdraw on the first still-held
  /// observation without ever reading the clock.
  static constexpr std::uint64_t kImmediate = 0;

  struct Node {
    std::atomic<std::uint32_t> state{kWaiting};
    /// Valid only once state == kAbandoned: where the skipper continues.
    std::atomic<Node*> pred{nullptr};
    /// What the owner's release needs, so it reads nothing of the lock:
    /// the wait policy, and the cold block of a waited acquisition.
    qsv::wait_policy policy = qsv::wait_policy::spin;
    qsv::obs::ColdRec* cold = nullptr;
    /// The held chain (platform::HeldList).
    const void* held_lock = nullptr;
    Node* held_next = nullptr;
  };
  // As QsvMutex::Node: one cache line of fields, one arena line pair.
  static_assert(sizeof(Node) <= qsv::platform::kCacheLine,
                "QsvTimeoutMutex::Node outgrew one cache line");
  static_assert(sizeof(qsv::platform::Padded<Node>) ==
                    qsv::platform::kFalseSharingRange,
                "QsvTimeoutMutex::Node's arena slot is not one line pair");
  static_assert(alignof(qsv::platform::Padded<Node>) ==
                    qsv::platform::kFalseSharingRange,
                "QsvTimeoutMutex::Node's arena slot is not line-pair aligned");
  using Arena = qsv::platform::NodeArena<Node>;
  using Held = qsv::platform::HeldList<Node>;

  bool acquire(std::uint64_t deadline_ns) {
    Node* n = Arena::instance().acquire();
    // relaxed: node init; the acq_rel exchange below publishes it.
    n->state.store(kWaiting, std::memory_order_relaxed);
    n->pred.store(nullptr, std::memory_order_relaxed);  // relaxed: as above
    n->cold = nullptr;
    Held::stamp(n, this);
    // Enqueue: acq_rel publishes our node and imports the predecessor's.
    Node* pred = var_.exchange(n, std::memory_order_acq_rel);

    // Wait on the predecessor chain, skipping abandoned nodes.
    n->policy = waiter_.policy();
    const bool yield_late = n->policy != qsv::wait_policy::spin;
    const std::uint32_t budget = waiter_.spin_budget();
    std::uint32_t polls = 0, spent = 0;
    bool waited = false;
    qsv::obs::ColdRec* cold = nullptr;
    std::uint64_t t0 = 0;
    for (;;) {
      const std::uint32_t s = pred->state.load(std::memory_order_acquire);
      if (s == kReleased) {
        // We own the variable. Adopt-and-reclaim the predecessor.
        Arena::instance().release(pred);
        Held::push(n);
        if (!waited) {
          tally_.count_acquire();  // on var_'s line, taken by the exchange
        } else if (cold != nullptr) {
          n->cold = cold;
          cold->count_contended(t0);
        }
        return true;
      }
      if (s == kAbandoned) {
        // Splice around the corpse: continue on its predecessor and
        // reclaim it (we are its unique successor).
        Node* pp = pred->pred.load(std::memory_order_acquire);
        Arena::instance().release(pred);
        pred = pp;
        continue;
      }
      // The predecessor still holds: from here on we are a contended
      // waiter. try_lock (kImmediate) withdraws clock-free, so it is
      // exempt from the bracket.
      if (deadline_ns != kImmediate && !waited) {
        waited = true;
        cold = rec_.waiter_cold();
        t0 = cold != nullptr ? qsv::platform::now_ns() : 0;
      }
      if (deadline_ns == kNoDeadline) {
        // Unbounded: the full policy applies (a parked waiter is woken
        // by the releaser's or abandoner's notify on the pred node).
        waiter_.wait_while_equal(pred->state, kWaiting);
        continue;
      }
      if (deadline_ns == kImmediate || ++polls >= kPollsPerClock) {
        polls = 0;
        if (deadline_ns == kImmediate ||
            qsv::platform::now_ns() >= deadline_ns) {
          // Withdraw: hand our current predecessor to our successor,
          // then mark ourselves abandoned. Order matters: pred must be
          // visible before the abandoned state (release store).
          // relaxed: ordered by the release store of kAbandoned below;
          // the splicing successor's acquire load of state pairs with it.
          n->pred.store(pred, std::memory_order_relaxed);
          n->state.store(kAbandoned, std::memory_order_release);
          // Wake a parked successor so it can splice past our corpse.
          waiter_.notify_all(n->state);
          return false;
        }
      }
      // Bounded waits stay clock-driven; past the spin budget every
      // non-spin policy donates the quantum between checks.
      if (yield_late && ++spent >= budget) {
        qsv::platform::thread_yield();
      } else {
        qsv::platform::cpu_relax();
      }
    }
  }

  /// Clock reads are ~20ns; amortize them over this many polls.
  static constexpr std::uint32_t kPollsPerClock = 64;

  // QsvMutex's one 64-byte line: the lock word, its tallies, rec_ and
  // waiter_ (pinned below the class).

  alignas(qsv::platform::kCacheLine) std::atomic<Node*> var_;
  /// Holder-owned tallies on var_'s line.
  [[no_unique_address]] qsv::obs::Tally tally_;

  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;

  /// How this instance's blocked threads wait (and are woken).
  qsv::platform::RuntimeWait waiter_;
};

static_assert(std::is_standard_layout_v<QsvTimeoutMutex>);
static_assert(sizeof(QsvTimeoutMutex) == qsv::platform::kCacheLine);
static_assert(alignof(QsvTimeoutMutex) == qsv::platform::kCacheLine);

}  // namespace qsv::core
