// qsv_rwlock.hpp — shared entry with batched reader admission, striped
// reader indicators, and local spinning for blocked readers.
//
// QSV's shared mode admits readers in *batches*: all readers parked at a
// phase boundary enter together, writers take strict FIFO turns between
// batches, and neither side can starve the other (phase-fair admission,
// the policy Brandenburg & Anderson later formalized as "Pf").
//
// This is the striped redesign that restores the mechanism's headline
// O(1)-remote-reference property to the read side (the original
// centralized reconstruction is preserved as QsvRwLockCentral for the
// F8/A2 ablation):
//
//   * Reader entry/exit in the no-writer case is one RMW on the thread's
//     own StripedCounter stripe plus one load of the writer gate — no
//     shared hot line, so read throughput scales with reader count. The
//     stripe word packs the reader-entry tally above the active count,
//     so the admitting RMW is also the telemetry.
//   * Readers that find the gate closed retreat from their stripe and
//     park on a private node drawn from the NodeArena, spinning (or
//     futex-parking, per wait_policy) on a flag only their granting writer
//     writes: local spinning, as in the exclusive protocol.
//   * Writers aggregate the stripes only at phase boundaries: seal the
//     gate, wait for the previous batch to confirm, then drain the
//     stripe sum to zero. Writer FIFO is the same ticket/grant pair as
//     before.
//
// Admission protocol (correctness sketch):
//
//   reader fast path:  stripe.fetch_add(1, sc); if gate open -> in;
//                      else stripe.fetch_sub(1), park.
//   writer seal:       gate.store(closed, sc); then read stripes (sc).
//   The seq_cst pair forbids the store-buffering outcome where the
//   reader misses the seal *and* the writer misses the increment.
//
//   parking handshake: the parking reader pushes a node, then re-checks
//   the gate. If it observes the gate closed after its push, the writer
//   present at that moment has not yet collected the stack (collection
//   happens after gate-open at unlock), so the node is guaranteed to be
//   collected and granted — no lost wakeup. If it observes the gate
//   open, the reader withdraws its node with a state CAS and retries the
//   fast path; a node whose withdraw-CAS loses was already claimed into
//   the batch and its owner simply takes the grant.
//
//   batch accounting:  the unlocking writer claims parked nodes
//   (kWaiting -> kClaimed), publishes the exact batch size, opens the
//   gate, then grants (kClaimed -> kGranted). A granted reader counts
//   itself into its own stripe and only then decrements the batch count,
//   so the next writer — which waits for the batch count to reach zero
//   before trusting the stripe drain — can never slip between a grant
//   and its confirmation.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/node_arena.hpp"
#include "platform/striped_counter.hpp"
#include "platform/wait.hpp"

namespace qsv::core {

template <std::size_t kStripes = 16>
class QsvRwLock {
 public:
  /// The waiting strategy (for parked readers) is per-instance state,
  /// fixed at construction, and defaults to the process-wide
  /// qsv::wait_policy.
  explicit QsvRwLock(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : waiter_(policy) {
    rec_.enroll(name(), this, &QsvRwLock::read_tallies);
  }
  QsvRwLock(const QsvRwLock&) = delete;
  QsvRwLock& operator=(const QsvRwLock&) = delete;
  ~QsvRwLock() { rec_.retire(); }  // unregister before the tallies die

  void lock_shared() noexcept {
    // Count ourselves (and the entry tally) into our own stripe, then
    // check the gate. seq_cst on both sides of the handshake (see file
    // comment).
    auto& slot = readers_.slot();
    slot.fetch_add(kEnter, std::memory_order_seq_cst);
    if ((gate_.load(std::memory_order_seq_cst) & kClosed) == 0) return;
    // A writer phase is in progress: retreat and park.
    slot.fetch_sub(kEnter, std::memory_order_seq_cst);
    const std::uint64_t t0 = rec_.wait_begin_ns();
    lock_shared_slow(slot);
    rec_.count_contended_shared(t0);
  }

  /// Non-blocking shared entry: the fast path *is* a try — count into
  /// the stripe, admit if the gate is open, retreat otherwise. A
  /// closed gate refuses *before* touching the stripe: a polling
  /// try-reader must not keep injecting transient counts into the sum
  /// the draining writer is waiting to see reach zero.
  bool try_lock_shared() noexcept {
    if ((gate_.load(std::memory_order_seq_cst) & kClosed) != 0) return false;
    auto& slot = readers_.slot();
    slot.fetch_add(kEnter, std::memory_order_seq_cst);
    if ((gate_.load(std::memory_order_seq_cst) & kClosed) == 0) return true;
    slot.fetch_sub(kEnter, std::memory_order_seq_cst);
    return false;
  }

  void unlock_shared() noexcept {
    // Exit lands on the same stripe the entry (or grant confirmation)
    // counted into; release pairs with the draining writer's loads.
    readers_.slot().fetch_sub(1, std::memory_order_release);
  }

  void lock() noexcept {
    // FIFO among writers via ticket/grant words.
    // relaxed: ticket draw; the acquire spin on writer_grant_ below is
    // the synchronization point for entering the phase.
    const std::uint32_t ticket =
        writer_ticket_.fetch_add(1, std::memory_order_relaxed);
    const bool waited =
        writer_grant_.load(std::memory_order_acquire) != ticket;
    std::uint64_t t0 = 0;
    if (!waited) {
      tally_.count_acquire();  // baton ours, on the ticket's line
    } else {
      t0 = rec_.wait_begin_ns();
      qsv::platform::spin_yield_until([&] {
        return writer_grant_.load(std::memory_order_acquire) == ticket;
      });
    }
    // Seal the gate: fast-path readers arriving from here on retreat.
    gate_.store(kClosed, std::memory_order_seq_cst);
    // The batch granted at the previous boundary must have confirmed
    // (counted into its stripes) before the stripe drain means anything.
    qsv::platform::spin_yield_until([&] {
      return batch_pending_.load(std::memory_order_acquire) == 0;
    });
    // Drain in-flight readers. Every active entry sits stably in one
    // stripe, so a single all-zero pass proves quiescence.
    qsv::platform::spin_yield_until([&] {
      return readers_.sum(active, std::memory_order_seq_cst) == 0;
    });
    if (waited) rec_.count_contended_acquire(t0);
  }

  /// Non-blocking exclusive entry: succeeds only when no writer holds
  /// or awaits the baton AND no reader phase is in flight. On a reader
  /// collision the already-sealed gate is unwound through the normal
  /// release path so parked readers cannot be stranded.
  bool try_lock() noexcept {
    // Claim the baton only if it is immediately ours: grant == ticket
    // means no writer holds or waits; winning the ticket CAS at that
    // value hands us the baton without spinning.
    std::uint32_t g = writer_grant_.load(std::memory_order_acquire);
    // relaxed: pre-check only; a stale read just fails the CAS below.
    if (writer_ticket_.load(std::memory_order_relaxed) != g) return false;
    // relaxed: both orders — the happens-before with the previous phase
    // came through the acquire load of writer_grant_ above; failure
    // publishes nothing.
    if (!writer_ticket_.compare_exchange_strong(g, g + 1,
                                                std::memory_order_relaxed,
                                                std::memory_order_relaxed)) {
      return false;
    }
    gate_.store(kClosed, std::memory_order_seq_cst);
    // Same two conditions lock() waits out, checked once: the previous
    // batch fully confirmed, and every stripe quiescent.
    if (batch_pending_.load(std::memory_order_acquire) == 0 &&
        readers_.sum(active, std::memory_order_seq_cst) == 0) {
      tally_.count_acquire();
      return true;
    }
    // Readers are inside (or confirming): withdraw the phase.
    release_phase();
    return false;
  }

  void unlock() noexcept {
    rec_.note_release();
    release_phase();
  }

  static constexpr const char* name() noexcept { return "qsv-rw"; }

  /// Space cost (Table 2): the striped indicator dominates — the price
  /// of scalable reads, paid per lock instance.
  static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(QsvRwLock);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  static constexpr std::uint32_t kClosed = 1;

  /// Stripe word layout: the low kActiveBits count readers inside (per
  /// stripe never negative — every decrement follows its own increment
  /// on the same stripe — and bounded by the threads hashing there);
  /// the bits above tally fast-path entries, wrapping after 2^44 per
  /// stripe. Entry adds kEnter, every other adjustment adds or removes
  /// one active reader only. Under -DQSV_OBS=0 the tally is not kept.
  static constexpr int kActiveBits = 20;
  static constexpr std::int64_t kActiveMask =
      (std::int64_t{1} << kActiveBits) - 1;
  static constexpr std::int64_t kEnter =
      1 + (QSV_OBS ? std::int64_t{1} << kActiveBits : 0);
  static std::int64_t active(std::int64_t word) noexcept {
    return word & kActiveMask;
  }
  static std::int64_t entries(std::int64_t word) noexcept {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(word) >>
                                     kActiveBits);
  }

  static void read_tallies(const void* self,
                           qsv::obs::HotCounts& out) noexcept {
    const auto* l = static_cast<const QsvRwLock*>(self);
    l->tally_.add_to(out);
    // relaxed: statistical read of moving stripes.
    out.shared += static_cast<std::uint64_t>(
        l->readers_.sum(entries, std::memory_order_relaxed));
  }

  static constexpr std::uint32_t kWaiting = 0;
  static constexpr std::uint32_t kClaimed = 1;
  static constexpr std::uint32_t kGranted = 2;
  static constexpr std::uint32_t kAbandoned = 3;

  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<std::uint32_t> state{kWaiting};
  };
  using Arena = qsv::platform::NodeArena<Node>;

  /// End a writer phase: open the gate, admit the parked batch, pass
  /// the baton. Shared by unlock() and the try_lock() backout (which
  /// is why step 4 accumulates instead of storing: on backout the
  /// previous batch may still be confirming, so batch_pending_ can be
  /// nonzero here).
  void release_phase() noexcept {
    // Order matters throughout; see the admission protocol above.
    // 1. Open the gate *before* collecting the stack, so a reader that
    //    pushes too late to be collected observes the open gate on its
    //    post-push check and withdraws instead of waiting.
    gate_.store(0, std::memory_order_seq_cst);
    // 2. Collect the parked readers.
    Node* chain = rwaiters_.exchange(nullptr, std::memory_order_seq_cst);
    // 3. Claim pass: fix the batch membership and count. Withdrawn
    //    corpses are recycled here.
    Node* claimed = nullptr;
    std::uint32_t batch = 0;
    while (chain != nullptr) {
      // relaxed: the seq_cst exchange that took the stack already
      // synchronized with every push; the links are visible.
      Node* next = chain->next.load(std::memory_order_relaxed);
      std::uint32_t expected = kWaiting;
      // acquire on failure: a lost claim means the owner withdrew, and
      // we recycle the node. Synchronizing with the withdraw CAS orders
      // the owner's last touch of the node before its next owner's
      // writes.
      if (chain->state.compare_exchange_strong(expected, kClaimed,
                                               std::memory_order_seq_cst,
                                               std::memory_order_acquire)) {
        // Park policies sleep on kWaiting; wake the owner so it advances
        // to waiting on kClaimed (no-op for spin policies).
        waiter_.notify_all(chain->state);
        // relaxed: claimed-list link, private to this writer until the
        // release grant below.
        chain->next.store(claimed, std::memory_order_relaxed);
        claimed = chain;
        ++batch;
      } else {
        Arena::instance().release(chain);
      }
      chain = next;
    }
    // 4. Publish the exact batch size before any grant. No reader can
    //    decrement until step 5.
    if (batch != 0) {
      // relaxed: RMW atomicity keeps the count exact; the next writer's
      // acquire load pairs with the readers' release decrements.
      batch_pending_.fetch_add(batch, std::memory_order_relaxed);
    }
    // 5. Grant: one store per node, each to the line its owner watches.
    while (claimed != nullptr) {
      // relaxed: still walking this writer's private claimed list.
      Node* next = claimed->next.load(std::memory_order_relaxed);
      claimed->state.store(kGranted, std::memory_order_release);
      waiter_.notify_all(claimed->state);
      claimed = next;
    }
    // 6. Pass the writer baton. Only the holder writes writer_grant_.
    // relaxed: reading back our own exclusive word.
    writer_grant_.store(writer_grant_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
  }

  void lock_shared_slow(std::atomic<std::int64_t>& slot) noexcept {
    for (;;) {
      // Retry the fast path: the phase may already be over.
      slot.fetch_add(1, std::memory_order_seq_cst);
      if ((gate_.load(std::memory_order_seq_cst) & kClosed) == 0) return;
      slot.fetch_sub(1, std::memory_order_seq_cst);

      // Park on a private node.
      Node* n = Arena::instance().acquire();
      // relaxed: node init; the seq_cst push CAS publishes it.
      n->state.store(kWaiting, std::memory_order_relaxed);
      // relaxed: head sample; the CAS validates it.
      Node* head = rwaiters_.load(std::memory_order_relaxed);
      do {
        n->next.store(head, std::memory_order_relaxed);  // relaxed: as above
      } while (!rwaiters_.compare_exchange_weak(head, n,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed));
      // relaxed: (failure order above) retry republishes via the CAS.

      if ((gate_.load(std::memory_order_seq_cst) & kClosed) == 0) {
        // The phase ended between our retreat and our push, so the
        // draining writer may have collected the stack without us.
        // Withdraw; if the CAS loses, we *were* collected and claimed,
        // and the grant is coming — fall through and take it.
        std::uint32_t expected = kWaiting;
        if (n->state.compare_exchange_strong(expected, kAbandoned,
                                             std::memory_order_seq_cst,
                                             std::memory_order_acquire)) {
          continue;  // corpse recycled by a later collection
        }
      }
      // Local wait: kWaiting -> kClaimed -> kGranted, every transition
      // written only by the granting writer.
      std::uint32_t s = n->state.load(std::memory_order_acquire);
      while (s != kGranted) {
        waiter_.wait_while_equal(n->state, s);
        s = n->state.load(std::memory_order_acquire);
      }
      Arena::instance().release(n);
      // Confirm admission: count into our own stripe first, then report
      // in; the next writer waits out batch_pending_ before draining.
      slot.fetch_add(1, std::memory_order_seq_cst);
      batch_pending_.fetch_sub(1, std::memory_order_release);
      return;
    }
  }

  /// How this instance's parked readers wait (and are woken). Writer
  /// phase-boundary waits never park (platform::spin_yield_until): the
  /// stripe drain watches a distributed sum no single futex word can
  /// stand for, and phase boundaries may wait on preempted threads.
  qsv::platform::RuntimeWait waiter_;

  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;

  /// Distributed reader indicator: entry/exit touch one stripe, whose
  /// word also carries the entry tally (see kActiveBits).
  qsv::platform::StripedCounter<kStripes> readers_;
  /// Writer gate: nonzero while a writer phase is in progress. Written
  /// only by the phase's writer.
  alignas(qsv::platform::kFalseSharingRange) std::atomic<std::uint32_t>
      gate_{0};
  /// Treiber stack of parked reader nodes, drained at every unlock().
  alignas(qsv::platform::kFalseSharingRange) std::atomic<Node*>
      rwaiters_{nullptr};
  /// Readers granted at the last boundary that have not yet confirmed.
  alignas(qsv::platform::kFalseSharingRange) std::atomic<std::uint32_t>
      batch_pending_{0};
  alignas(qsv::platform::kFalseSharingRange) std::atomic<std::uint32_t>
      writer_ticket_{0};
  /// Writer-baton-owned tallies on the ticket dispenser's line.
  [[no_unique_address]] qsv::obs::Tally tally_;
  alignas(qsv::platform::kFalseSharingRange) std::atomic<std::uint32_t>
      writer_grant_{0};
};

}  // namespace qsv::core
