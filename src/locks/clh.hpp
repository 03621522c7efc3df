// clh.hpp — Craig / Landin & Hagersten list-based queue lock.
//
// Each waiter enqueues a node via one fetch&store on the tail and spins
// on its *predecessor's* node. Release is a single store to the node the
// successor is already watching. A released node belongs to its
// successor: the thread that acquires recycles its predecessor's (now
// quiescent) node at once — the CLH node-recycling trick, hidden here
// behind the node arena (platform/node_arena.hpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/node_arena.hpp"
#include "platform/wait.hpp"

namespace qsv::locks {

class ClhLock {
 public:
  explicit ClhLock(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {
    // The queue needs a sentinel "already released" node for the first
    // arrival to observe.
    Node* sentinel = Arena::instance().acquire();
    // relaxed: single-threaded construction.
    sentinel->released.store(1, std::memory_order_relaxed);
    tail_.store(sentinel, std::memory_order_relaxed);  // relaxed: ctor
    rec_.enroll(name(), this, &qsv::obs::read_member<&ClhLock::tally_>);
  }
  ClhLock(const ClhLock&) = delete;
  ClhLock& operator=(const ClhLock&) = delete;
  ~ClhLock() {
    rec_.retire();  // unregister before the tallies die
    // When no one holds or waits, tail_ points at a quiescent node that
    // now belongs to nobody; return it to the arena's global pool via the
    // destructing thread's cache.
    // relaxed: destructor runs quiescent by precondition.
    Arena::instance().release(tail_.load(std::memory_order_relaxed));
  }

  void lock() {
    Node* n = Arena::instance().acquire();
    // relaxed: node init; the acq_rel exchange below publishes it.
    n->released.store(0, std::memory_order_relaxed);
    Held::stamp(n, this);
    // acq_rel: release publishes my node's init; acquire receives the
    // predecessor's node contents.
    Node* pred = tail_.exchange(n, std::memory_order_acq_rel);
    // One extra acquire load classifies the acquisition for telemetry;
    // the wait below re-checks, so the protocol is unchanged.
    if (pred->released.load(std::memory_order_acquire) != 0) {
      tally_.count_acquire();  // on the line the exchange just took
    } else {
      const std::uint64_t t0 = rec_.wait_begin_ns();
      waiter_.wait_while_equal(pred->released, 0u);
      rec_.count_contended_acquire(t0);
    }
    // The predecessor's node is ours now and nobody polls it: recycle it.
    Arena::instance().release(pred);
    Held::push(n);
  }

  void unlock() {
    rec_.note_release();
    Node* mine = Held::pop(this);
    // Single store the successor is spinning on; release publishes CS.
    // From here the node is the successor's (or the next arrival's),
    // which may recycle it before the wake below — benign: arena nodes
    // are never unmapped, and every wait re-checks its predicate.
    mine->released.store(1, std::memory_order_release);
    waiter_.notify_all(mine->released);
  }

  static constexpr const char* name() noexcept { return "clh"; }
  static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(std::atomic<void*>);  // tail word; nodes accounted per waiter
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  struct Node {
    std::atomic<std::uint32_t> released{0};
    /// The held chain (platform::HeldList): the owner's alone.
    const void* held_lock = nullptr;
    Node* held_next = nullptr;
  };
  // The flag a successor spins on owns its line pair in the arena.
  static_assert(sizeof(Node) <= qsv::platform::kCacheLine,
                "ClhLock::Node outgrew one cache line");
  static_assert(sizeof(qsv::platform::Padded<Node>) ==
                    qsv::platform::kFalseSharingRange,
                "ClhLock::Node's arena slot is not one line pair");
  static_assert(alignof(qsv::platform::Padded<Node>) ==
                    qsv::platform::kFalseSharingRange,
                "ClhLock::Node's arena slot is not line-pair aligned");
  using Arena = qsv::platform::NodeArena<Node>;
  using Held = qsv::platform::HeldList<Node>;

  /// How this instance's waiters wait (and are woken).
  qsv::platform::RuntimeWait waiter_;
  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;
  alignas(qsv::platform::kFalseSharingRange) std::atomic<Node*> tail_;
  /// Holder-owned tallies on tail_'s line.
  [[no_unique_address]] qsv::obs::Tally tally_;
};

}  // namespace qsv::locks
