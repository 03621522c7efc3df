// qsv_mutex.hpp — exclusive entry on a synchronization variable.
//
// The QSV exclusive protocol: the variable holds the queue tail (null =
// free). Acquire is one fetch&store; if a predecessor exists, link behind
// it and wait on a flag in our own node (local spinning). Release grants
// the successor with one store to the flag it is watching, or swings the
// variable back to null with compare&swap when no successor is queued.
// This is Mellor-Crummey and Scott's list-based queue lock (ACM TOCS
// 1991): the catalogue's `mcs` rows are names for this class.
//
// Per-thread queue nodes come from the platform arena, and each thread
// chains the nodes of the locks it holds through the nodes themselves
// (platform::HeldList), so the public interface is node-free:
// lock()/unlock() like any mutex, and one word of per-variable state.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

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
    Node* n = fresh_node();
    // acq_rel: publish our initialized node to the successor-side, and
    // observe the predecessor node published by the previous fetch&store.
    Node* pred = var_.exchange(n, std::memory_order_acq_rel);
    // The exchange took the lock's line: copy the policy our release
    // will wake a successor by into our node, so that release reads
    // only the node.
    n->policy = waiter_.policy();
    if (pred == nullptr) {
      tally_.count_acquire();  // on the line the exchange just took
    } else {
      wait_behind(pred, n);
    }
    Held::push(n);
  }

  bool try_lock() {
    Node* n = fresh_node();
    Node* expected = nullptr;
    // relaxed: failure order — a failed try_lock reads nothing it
    // needs ordered; the node is recycled untouched.
    if (var_.compare_exchange_strong(expected, n, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      n->policy = waiter_.policy();  // as in lock()
      tally_.count_acquire();
      Held::push(n);
      return true;
    }
    Arena::instance().release(n);
    return false;
  }

  void unlock() {
    Node* n = Held::pop(this);
    // Only a contended acquisition left a cold block (and a hold stamp
    // in it) in its node: the uncontended cycle never leaves the node's
    // line here, and no release reads the lock's line for it.
    if (n->cold != nullptr) n->cold->close_hold();
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
    // Grant: single store to the line the successor is spinning on. The
    // successor counts the handoff itself (ColdRec::count_granted).
    next->state.store(kGranted, std::memory_order_release);
    qsv::platform::RuntimeWait::notify_all(n->policy, next->state);
    Arena::instance().release(n);
  }

  /// Hand the unlock obligation to another thread (the cohort
  /// combinator's hook, hier/cohort_lock.hpp): unlink the held
  /// acquisition's queue node from the calling thread's held chain and
  /// return it as an opaque token. The lock stays held; whichever
  /// thread adopt_hold()s the token becomes the one that must unlock().
  /// Nodes are arena-owned, so the cross-thread migration is safe by
  /// construction (platform/node_arena.hpp).
  void* export_hold() { return Held::pop(this); }
  /// Adopt an export_hold() token: the calling thread now holds the
  /// lock and must unlock() it.
  void adopt_hold(void* hold) {
    Node* n = static_cast<Node*>(hold);
    Held::stamp(n, this);
    Held::push(n);
  }

  static constexpr const char* name() noexcept { return "qsv"; }

  /// Per-variable state is exactly one word (Table 2's headline row).
  static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(std::atomic<void*>);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  static constexpr std::uint32_t kWaiting = 0;
  static constexpr std::uint32_t kGranted = 1;

  /// A queue node carries what its owner's release needs, so a handoff
  /// reads nothing of the lock: the wait policy to wake the successor
  /// by, the cold block of a contended acquisition, and the owner's
  /// held chain. The owner alone reads and writes those; next and state
  /// are the protocol.
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> state{kWaiting};
    qsv::wait_policy policy = qsv::wait_policy::spin;
    /// Null for an uncontended acquisition (and when telemetry is off).
    qsv::obs::ColdRec* cold = nullptr;
    /// The held chain (platform::HeldList).
    const void* held_lock = nullptr;
    Node* held_next = nullptr;
  };
  // A node's fields fit one cache line, so an uncontended cycle touches
  // one node line; in the arena a node fills exactly one line pair.
  static_assert(sizeof(Node) <= qsv::platform::kCacheLine,
                "QsvMutex::Node outgrew one cache line");
  static_assert(sizeof(qsv::platform::Padded<Node>) ==
                    qsv::platform::kFalseSharingRange,
                "QsvMutex::Node's arena slot is not one line pair");
  static_assert(alignof(qsv::platform::Padded<Node>) ==
                    qsv::platform::kFalseSharingRange,
                "QsvMutex::Node's arena slot is not line-pair aligned");
  using Arena = qsv::platform::NodeArena<Node>;
  using Held = qsv::platform::HeldList<Node>;

  Node* fresh_node() {
    Node* n = Arena::instance().acquire();
    // relaxed: node init; the acq_rel RMW that enqueues it publishes it.
    n->next.store(nullptr, std::memory_order_relaxed);
    n->state.store(kWaiting, std::memory_order_relaxed);  // relaxed: as above
    n->cold = nullptr;
    Held::stamp(n, this);
    return n;
  }

  /// The contended half of lock(), kept out of line so the uncontended
  /// cycle stays small enough to inline at the call site.
  [[gnu::noinline]] void wait_behind(Node* pred, Node* n) {
    // Still on the line the exchange took: fetch the cold block before
    // the predecessor can see us, so neither our grant's bookkeeping
    // nor our release reads the lock's line again.
    n->cold = rec_.waiter_cold();
    // Make ourselves visible to the predecessor's release; its acquire
    // load of `next` pairs with this release store.
    pred->next.store(n, std::memory_order_release);
    const std::uint64_t t0 = n->cold != nullptr ? qsv::platform::now_ns() : 0;
    waiter_.wait_while_equal(n->state, kWaiting);
    if (n->cold != nullptr) n->cold->count_granted(t0);
  }

  // One 64-byte line: the lock word, its tallies, rec_ (kind, cold-block
  // pointer, registry slot) and waiter_. Every arrival's exchange takes
  // the line, so a handoff reads none of it: the queue nodes carry what
  // a release needs (Node). The asserts below the class pin the line.

  /// The synchronization variable itself: queue tail, null when free.
  alignas(qsv::platform::kCacheLine) std::atomic<Node*> var_{nullptr};
  /// Holder-owned tallies on var_'s line.
  [[no_unique_address]] qsv::obs::Tally tally_;

  /// Per-instance telemetry registration (obs/hook.hpp); empty and
  /// folded away under -DQSV_OBS=0.
  [[no_unique_address]] qsv::obs::LockRec rec_;

  /// How this instance's blocked threads wait (and are woken).
  qsv::platform::RuntimeWait waiter_;
};

static_assert(std::is_standard_layout_v<QsvMutex>);
static_assert(sizeof(QsvMutex) == qsv::platform::kCacheLine);
static_assert(alignof(QsvMutex) == qsv::platform::kCacheLine);

}  // namespace qsv::core
