// mcs.hpp — Mellor-Crummey & Scott list-based queue lock (1991).
//
// The contemporaneous rival of the reconstructed QSV mechanism. Waiters
// enqueue with fetch&store and spin on a flag in their *own* node (unlike
// CLH's predecessor spin), which makes it the right base for NUMA
// machines where a thread's own node can live in local memory. Release
// must handle the "no successor visible yet" race with compare&swap.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/node_arena.hpp"
#include "platform/wait.hpp"

namespace qsv::locks {

class McsLock {
 public:
  explicit McsLock(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {
    rec_.enroll(name(), this, &qsv::obs::read_member<&McsLock::tally_>);
  }
  McsLock(const McsLock&) = delete;
  McsLock& operator=(const McsLock&) = delete;
  ~McsLock() { rec_.retire(); }  // unregister before the tallies die

  void lock() {
    Node* n = fresh_node();
    // acq_rel: publish my node, observe predecessor's.
    Node* pred = tail_.exchange(n, std::memory_order_acq_rel);
    // QsvMutex's rule: the release reads only its node (see Node).
    n->policy = waiter_.policy();
    if (pred != nullptr) {
      n->cold = rec_.waiter_cold();  // before the predecessor sees us
      // Link myself; predecessor's unlock will grant me. release pairs
      // with the unlock's acquire load of next.
      pred->next.store(n, std::memory_order_release);
      const std::uint64_t t0 =
          n->cold != nullptr ? qsv::platform::now_ns() : 0;
      waiter_.wait_while_equal(n->granted, 0u);
      if (n->cold != nullptr) n->cold->count_granted(t0);
    } else {
      tally_.count_acquire();  // on the line the exchange just took
    }
    Held::local().insert(this, n);
  }

  bool try_lock() {
    Node* n = fresh_node();
    Node* expected = nullptr;
    // relaxed: failure order — a failed try_lock reads nothing.
    if (tail_.compare_exchange_strong(expected, n, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      n->policy = waiter_.policy();
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
    // Only a granted (contended) acquisition stamped a hold start.
    if (n->cold != nullptr) n->cold->close_hold();
    Node* next = n->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      // No successor linked yet. If the tail is still me, the queue is
      // empty: swing it back to null and we are done. Counted while we
      // still hold; taken back if a successor turns up.
      tally_.count_free_release();
      Node* expected = n;
      // relaxed: failure order — failure only means a successor is
      // linking; the acquire re-load of next carries the ordering.
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        Arena::instance().release(n);
        return;
      }
      tally_.uncount_free_release();
      // A successor swapped the tail but has not stored next yet: wait
      // out the tiny window.
      while ((next = n->next.load(std::memory_order_acquire)) == nullptr) {
        qsv::platform::cpu_relax();
      }
    }
    next->granted.store(1, std::memory_order_release);
    qsv::platform::RuntimeWait::notify_all(n->policy, next->granted);
    Arena::instance().release(n);
  }

  /// Hand the unlock obligation to another thread (the cohort
  /// combinator's hook — see QsvMutex::export_hold for the contract).
  void* export_hold() {
    auto& e = Held::local().find(this);
    Node* n = e.node;
    Held::local().erase(e);
    return n;
  }
  void adopt_hold(void* hold) {
    Held::local().insert(this, static_cast<Node*>(hold));
  }

  static constexpr const char* name() noexcept { return "mcs"; }
  static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(std::atomic<void*>);  // tail; one node per waiting thread
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  friend struct qsv::platform::LayoutAuditAccess;

  /// QsvMutex's node: the protocol's next and granted, plus what the
  /// owner's release needs, so a handoff reads nothing of the lock.
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> granted{0};
    qsv::wait_policy policy = qsv::wait_policy::spin;
    qsv::obs::ColdRec* cold = nullptr;  ///< contended acquisitions only
  };
  using Arena = qsv::platform::NodeArena<Node>;
  using Held = qsv::platform::HeldMap<Node>;

  static Node* fresh_node() {
    Node* n = Arena::instance().acquire();
    // relaxed: node init; the acq_rel RMW that enqueues it publishes it.
    n->next.store(nullptr, std::memory_order_relaxed);
    n->granted.store(0, std::memory_order_relaxed);  // relaxed: as above
    n->cold = nullptr;
    return n;
  }

  // QsvMutex's one 64-byte line: the tail, its tallies, rec_ and
  // waiter_ (qsvlint's layout audit pins the size).
  alignas(qsv::platform::kCacheLine) std::atomic<Node*> tail_{nullptr};
  /// Holder-owned tallies on tail_'s line.
  [[no_unique_address]] qsv::obs::Tally tally_;
  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;
  /// How this instance's waiters wait (and are woken).
  qsv::platform::RuntimeWait waiter_;
};

}  // namespace qsv::locks
