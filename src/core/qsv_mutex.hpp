// qsv_mutex.hpp — exclusive entry on a synchronization variable.
//
// The QSV exclusive protocol: the variable holds the queue tail (null =
// free). Acquire is one fetch&store; if a predecessor exists, link behind
// it and wait on a flag in our own node (local spinning). Release grants
// the successor with one store to the flag it is watching, or swings the
// variable back to null with compare&swap when no successor is queued.
//
// Per-thread queue nodes come from the platform arena and are tracked in
// a thread-local held map, so the public interface is node-free:
// lock()/unlock() like any mutex, and one word of per-variable state.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/node_arena.hpp"
#include "platform/wait.hpp"

namespace qsv::core {

class QsvMutex {
 public:
  /// The waiting strategy is per-instance state, fixed at construction:
  /// default-constructing picks up the process-wide qsv::wait_policy,
  /// and qsv::mutex(wait_policy::park) pins this instance regardless of
  /// the process default.
  explicit QsvMutex(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {
    rec_.enroll(name(), this, &qsv::obs::read_member<&QsvMutex::tally_>);
  }
  QsvMutex(const QsvMutex&) = delete;
  QsvMutex& operator=(const QsvMutex&) = delete;
  ~QsvMutex() { rec_.retire(); }  // unregister before the tallies die

  void lock() {
    Node* n = Arena::instance().acquire();
    // relaxed: node init; the acq_rel exchange below publishes it.
    n->next.store(nullptr, std::memory_order_relaxed);
    n->state.store(kWaiting, std::memory_order_relaxed);  // relaxed: as above
    // acq_rel: publish our initialized node to the successor-side, and
    // observe the predecessor node published by the previous fetch&store.
    Node* pred = var_.exchange(n, std::memory_order_acq_rel);
    if (pred == nullptr) {
      tally_.count_acquire();  // on the line the exchange just took
    } else {
      wait_behind(pred, n);
    }
    Held::local().insert(this, n);
  }

  bool try_lock() {
    Node* n = Arena::instance().acquire();
    // relaxed: node init; the acq_rel CAS below publishes it on success.
    n->next.store(nullptr, std::memory_order_relaxed);
    n->state.store(kWaiting, std::memory_order_relaxed);  // relaxed: as above
    Node* expected = nullptr;
    // relaxed: failure order — a failed try_lock reads nothing it
    // needs ordered; the node is recycled untouched.
    if (var_.compare_exchange_strong(expected, n, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      tally_.count_acquire();
      Held::local().insert(this, n);
      return true;
    }
    Arena::instance().release(n);
    return false;
  }

  void unlock() {
    auto& e = Held::local().find(this);
    Node* n = e.node;
    Held::local().erase(e);
    // Only a contended acquisition left a granted node (and a hold
    // stamp in the cold block); the uncontended cycle never leaves the
    // node's line here.
    // relaxed: our own node; our acquire spin already saw the grant.
    if (n->state.load(std::memory_order_relaxed) == kGranted) {
      rec_.note_release();
    }
    Node* next = n->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      // Nobody linked behind us yet. If the variable still points at our
      // node the queue is empty: free the variable. The free release is
      // counted first — we still hold the lock, and the CAS publishes
      // the count to the next holder — and taken back if the CAS loses.
      tally_.count_free_release();
      Node* expected = n;
      // relaxed: failure order — on failure we fall through to the
      // acquire re-load of next, which carries the needed ordering.
      if (var_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
        Arena::instance().release(n);
        return;
      }
      tally_.uncount_free_release();
      // A successor performed the fetch&store but has not linked yet;
      // the window is a handful of instructions.
      while ((next = n->next.load(std::memory_order_acquire)) == nullptr) {
        qsv::platform::cpu_relax();
      }
    }
    rec_.count_handoff();
    // Grant: single store to the line the successor is spinning on.
    next->state.store(kGranted, std::memory_order_release);
    waiter_.notify_all(next->state);
    Arena::instance().release(n);
  }

  /// Hand the unlock obligation to another thread (the cohort
  /// combinator's hook, hier/cohort_lock.hpp): detach the in-flight
  /// acquisition's queue node from the calling thread's held map and
  /// return it as an opaque token. The lock stays held; whichever
  /// thread adopt_hold()s the token becomes the one that must unlock().
  /// Nodes are arena-owned, so the cross-thread migration is safe by
  /// construction (platform/node_arena.hpp).
  void* export_hold() {
    auto& e = Held::local().find(this);
    Node* n = e.node;
    Held::local().erase(e);
    return n;
  }
  /// Adopt an export_hold() token: the calling thread now holds the
  /// lock and must unlock() it.
  void adopt_hold(void* hold) {
    Held::local().insert(this, static_cast<Node*>(hold));
  }

  static constexpr const char* name() noexcept { return "qsv"; }

  /// Per-variable state is exactly one word (Table 2's headline row).
  static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(std::atomic<void*>);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  friend struct qsv::platform::LayoutAuditAccess;

  static constexpr std::uint32_t kWaiting = 0;
  static constexpr std::uint32_t kGranted = 1;

  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> state{kWaiting};
  };
  using Arena = qsv::platform::NodeArena<Node>;
  using Held = qsv::platform::HeldMap<Node>;

  /// The contended half of lock(), kept out of line so the uncontended
  /// cycle stays small enough to inline at the call site.
  [[gnu::noinline]] void wait_behind(Node* pred, Node* n) {
    // Make ourselves visible to the predecessor's release; its acquire
    // load of `next` pairs with this release store.
    pred->next.store(n, std::memory_order_release);
    const std::uint64_t t0 = rec_.wait_begin_ns();
    waiter_.wait_while_equal(n->state, kWaiting);
    rec_.count_contended_acquire(t0);
  }

  // One 128-byte pair of lines. The first holds the lock word, its
  // tallies and rec_'s registry-only fields: the uncontended cycle
  // touches this line alone. The second holds rec_'s kind_ and cold_
  // and waiter_: everything a handoff reads, written only at
  // construction (then once when the first contended acquisition
  // installs the cold block, and by adaptive's wake-latency estimate).
  // qsvlint's layout audit pins both lines.

  /// The synchronization variable itself: queue tail, null when free.
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<Node*> var_{nullptr};
  /// Holder-owned tallies on var_'s 64-byte line.
  [[no_unique_address]] qsv::obs::Tally tally_;

  /// Per-instance telemetry registration (obs/hook.hpp), straddling the
  /// two lines; empty and folded away under -DQSV_OBS=0.
  [[no_unique_address]] qsv::obs::LockRec rec_;

  /// How this instance's blocked threads wait (and are woken).
  qsv::platform::RuntimeWait waiter_;
};

}  // namespace qsv::core
