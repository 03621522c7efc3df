// eventcount.hpp — eventcounts: ordered condition synchronization
// without mutual exclusion (Reed & Kanodia's discipline, the era's
// standard "general mechanism" companion to sequencers).
//
// An eventcount is a monotonically increasing counter. `advance()`
// publishes that one more event has occurred; `await(v)` blocks until at
// least `v` events have occurred. Combined with a Sequencer
// (sequencer.hpp) this expresses producer/consumer, bounded buffers, and
// pipeline stage hand-offs with *no lock at all* — the comparison the
// reconstructed experiment F11 makes against the semaphore+mutex ring.
//
// Two implementations:
//   * EventCount — the count is one shared word; awaiting threads poll
//     it through the instance's RuntimeWait. Simple and fast at low
//     contention, but every advance invalidates every waiter's cached
//     copy (centralized spinning — the pattern the QSV mechanism exists
//     to avoid).
//   * QueuedEventCount — awaiting threads enqueue a node carrying their
//     target and spin *locally*; advance detaches the waiter list and
//     wakes exactly the satisfied nodes. The QSV node protocol applied
//     to condition synchronization (one fetch&store to enqueue, one
//     store per wake).
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/node_arena.hpp"
#include "platform/wait.hpp"

namespace qsv::eventcount {

/// Centralized eventcount: one word, waiters poll through `waiter_`.
class EventCount {
 public:
  explicit EventCount(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {}
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Number of events that have occurred so far.
  std::uint32_t read() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Publish one more event and wake waiters. Returns the new count.
  /// The release ordering publishes everything written before the event
  /// to threads whose await() observes it.
  std::uint32_t advance() noexcept {
    const std::uint32_t now =
        count_.fetch_add(1, std::memory_order_acq_rel) + 1;
    waiter_.notify_all(count_);
    return now;
  }

  /// Block until at least `target` events have occurred; returns the
  /// count actually observed (>= target).
  std::uint32_t await(std::uint32_t target) const noexcept {
    for (;;) {
      const std::uint32_t now = count_.load(std::memory_order_acquire);
      if (now >= target) return now;
      // Sleep until the word changes from the snapshot, then re-check:
      // works uniformly for spin, yield, park, and adaptive policies.
      waiter_.wait_while_equal(count_, now);
    }
  }

  static constexpr const char* name() noexcept { return "eventcount"; }

 private:
  // Mutable members: await() is const but parks through the waiter and
  // notifies take the atomic by non-const reference.
  mutable qsv::platform::RuntimeWait waiter_;
  alignas(qsv::platform::kFalseSharingRange) mutable
      std::atomic<std::uint32_t> count_{0};
};

/// Queue-based eventcount: waiters spin on their own node (the QSV
/// protocol applied to condition synchronization).
class QueuedEventCount {
 public:
  explicit QueuedEventCount(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {}
  QueuedEventCount(const QueuedEventCount&) = delete;
  QueuedEventCount& operator=(const QueuedEventCount&) = delete;

  std::uint32_t read() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  std::uint32_t advance() noexcept {
    const std::uint32_t now =
        count_.fetch_add(1, std::memory_order_acq_rel) + 1;
    wake_satisfied();
    return now;
  }

  std::uint32_t await(std::uint32_t target) noexcept {
    std::uint32_t now = count_.load(std::memory_order_acquire);
    if (now >= target) return now;

    Node* n = Arena::instance().acquire();
    n->target = target;
    // relaxed: node init; the acq_rel push CAS below publishes it.
    n->state.store(kWaiting, std::memory_order_relaxed);
    // Push onto the Treiber stack of waiters.
    // relaxed: head sample; the CAS validates it (failure order too).
    Node* head = waiters_.load(std::memory_order_relaxed);
    do {
      n->next.store(head, std::memory_order_relaxed);  // relaxed: as above
    } while (!waiters_.compare_exchange_weak(head, n,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed));
    // Lost-wakeup guard: an advance may have run between our first read
    // and the push. Re-check, and if we are already satisfied try to
    // withdraw; losing the race to an advance's grant is fine (it will
    // have woken us).
    now = count_.load(std::memory_order_acquire);
    if (now >= target) {
      std::uint32_t expected = kWaiting;
      // acquire on failure too: a lost withdraw means a walker granted
      // the node, and we go on to recycle it. The failed CAS must
      // synchronize with that grant CAS so that the walker's read of
      // `target` happens before the node's next await() rewrites it.
      if (n->state.compare_exchange_strong(expected, kAbandoned,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        // Withdrawn: the node stays in the stack and the next advance
        // drops it (and owns returning it to the arena).
        return now;
      }
      // CAS lost to a concurrent grant — fall through as granted.
    } else {
      waiter_.wait_while_equal(n->state, kWaiting);
    }
    const std::uint32_t seen = count_.load(std::memory_order_acquire);
    // Ownership rule: a granted node belongs to the *waiter* (the grantor
    // stops touching it the moment its grant CAS succeeds, except for the
    // wake notification), so we recycle it here — after the final load of
    // `state` — never the grantor. This is what makes the grant safe:
    // the node cannot be re-armed to kWaiting under our spin.
    Arena::instance().release(n);
    return seen;
  }

  static constexpr const char* name() noexcept { return "queued-ec"; }

 private:
  static constexpr std::uint32_t kWaiting = 0;
  static constexpr std::uint32_t kGranted = 1;
  static constexpr std::uint32_t kAbandoned = 2;

  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> state{kWaiting};
    std::uint32_t target = 0;
  };
  using Arena = qsv::platform::NodeArena<Node>;

  /// Detach the whole waiter stack, wake nodes whose target is met, and
  /// re-push the rest. Node ownership: a successful grant CAS transfers
  /// the node to its waiter (which recycles it after observing the
  /// grant); abandoned nodes are recycled here. `next` is always read
  /// *before* the grant CAS because the node may be gone afterwards.
  ///
  /// Walks are serialized by `walk_lock_` and read the count *inside*
  /// the lock. Without this there is a lost wakeup: walker A detaches an
  /// unsatisfied node, a later advance B finds the stack empty and
  /// finishes, then A re-pushes the node — which B's count satisfied —
  /// and no walk ever sees it again. Serialization + the in-lock re-read
  /// guarantee the *last* walk observes the final count and every
  /// re-pushed node. (The QSV barrier's closing-arrival grant walk uses
  /// the same single-walker discipline.)
  void wake_satisfied() noexcept {
    while (walk_lock_.exchange(1, std::memory_order_acquire) != 0) {
      qsv::platform::cpu_relax();
    }
    const std::uint32_t now = count_.load(std::memory_order_acquire);
    Node* list = waiters_.exchange(nullptr, std::memory_order_acq_rel);
    while (list != nullptr) {
      // relaxed: the acq_rel exchange that took the stack synchronized
      // with every push; the links are visible.
      Node* next = list->next.load(std::memory_order_relaxed);
      if (list->target <= now) {
        std::uint32_t expected = kWaiting;
        // acquire on failure too: failure means the waiter abandoned
        // the node, and we recycle it. Synchronizing with the abandon
        // CAS orders the waiter's last touch of the node before its
        // next owner's writes.
        if (list->state.compare_exchange_strong(expected, kGranted,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
          // Waiter owns the node from here on; only the wake remains.
          // (A notify on a node the waiter has already recycled is
          // benign: arena nodes are never unmapped and every wait loop
          // re-checks its predicate on spurious wakes.)
          waiter_.notify_all(list->state);
        } else {
          // Waiter withdrew concurrently (kAbandoned): ours to recycle.
          Arena::instance().release(list);
        }
      } else if (list->state.load(std::memory_order_acquire) ==
                 kAbandoned) {
        Arena::instance().release(list);
      } else {
        // Still unsatisfied: re-push.
        // relaxed: head sample + link; the acq_rel CAS publishes (its
        // failure order just refreshes the sample).
        Node* head = waiters_.load(std::memory_order_relaxed);
        do {
          list->next.store(head, std::memory_order_relaxed);  // relaxed: as above
        } while (!waiters_.compare_exchange_weak(head, list,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed));
      }
      list = next;
    }
    walk_lock_.store(0, std::memory_order_release);
  }

  /// How this instance's blocked awaiters wait (and are woken).
  qsv::platform::RuntimeWait waiter_;
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> count_{0};
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<Node*> waiters_{nullptr};
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> walk_lock_{0};
};

}  // namespace qsv::eventcount
