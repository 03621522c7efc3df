// cohort_lock.hpp — the cohort (hierarchical) lock combinator.
//
// CohortLock implements one budgeted local-handoff protocol over ANY
// pair of mutexes from the catalogue (QSV×QSV, QSV×ticket, ticket×QSV,
// ticket×ticket, …), so every lock family becomes a cohort composition
// and the cohort effect can be measured independently of the queue
// protocol that carries it. The catalogue's "hier-qsv" row is the
// QSV×QSV composition over fixed blocks of four threads.
//
// Protocol (Dice/Marathe/Shavit-style lock cohorting, restated for the
// 1991 repertoire — both tiers still need only fetch&store/CAS-class
// mutexes; the only things asked of a component beyond lock/unlock are
// try_lock and the global tier's cross-thread-release contract, see
// below):
//
//   * One LocalLock per cohort (cohorts = NUMA nodes via
//     TopologyCohortMap by default), one GlobalLock for the machine.
//     A cohort's slab is built the first time one of its threads
//     takes the lock, so an instance pays only for the cohorts it uses.
//   * lock(): try the local lock. Only when the try fails, announce
//     intent (per-cohort `pending` count) and wait on it. If the
//     previous holder left the global grant behind (`top_granted`),
//     the thread owns both locks at the price of one node-local
//     handoff. Otherwise it acquires the global lock on the cohort's
//     behalf.
//   * unlock(): if the budget allows and a cohort-mate is committed
//     (`pending > 0`), leave `top_granted` set and release only the
//     local lock — the global lock never moves, the handoff is local.
//     Otherwise release the global lock first, then the local one.
//   * `budget` bounds consecutive local passes, so other cohorts wait
//     at most budget+1 critical sections per tenure — the
//     fairness/throughput dial (budget 0 degenerates to the flat
//     global lock plus one local hop: the ablation control).
//
// `pending` makes the handoff safe without inspecting the components:
// it is incremented before local.lock() and decremented only after
// local.lock() returns — and since the releasing holder still owns the
// local lock when it reads `pending`, a nonzero reading proves a
// cohort-mate is committed to acquiring the local lock and will
// inherit (and eventually release) the global grant. A thread that
// wins the local try never announces itself, so `pending` is only a
// hint: a zero reading may miss a thread between its failed try and
// its announcement, which costs one needless global release, never a
// stranded grant. The remaining per-cohort fields (`top_granted`,
// `passes`) are owned by the local lock's holder; the local lock's
// release/acquire ordering carries them between holders, so they need
// no atomicity of their own.
//
// Per tier the O(1)-remote-reference argument of the underlying locks
// is preserved: CohortLock adds one per-cohort line (pending + holder
// fields, padded) and routes every wait through the component locks,
// which spin locally by construction. See DESIGN.md "Topology and
// cohorts".
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <vector>

#include "hier/cohort_map.hpp"
#include "obs/hook.hpp"
#include "platform/cache.hpp"
#include "platform/thread_id.hpp"
#include "qsv/wait.hpp"

namespace qsv::hier {

/// The component can hand its unlock obligation to another thread:
/// export_hold() detaches the in-flight acquisition from the calling
/// thread as an opaque token, adopt_hold() attaches it to the adopter
/// (QsvMutex implements the pair over its held chain).
template <typename L>
concept HoldTransferable = requires(L l, void* hold) {
  { l.export_hold() } -> std::convertible_to<void*>;
  l.adopt_hold(hold);
};

/// The component declares that unlock() touches no per-thread state,
/// so any thread may release it (ticket, tas — the centralized locks).
template <typename L>
concept ThreadObliviousUnlock = requires {
  { L::kThreadObliviousUnlock } -> std::convertible_to<bool>;
} && L::kThreadObliviousUnlock;

/// The cohort combinator over two exclusive locks. `Map` assigns dense
/// thread indices to cohorts (TopologyCohortMap by default — one cohort
/// per NUMA node). The combinator's own telemetry record counts
/// acquisitions, local passes and global tenures; the component locks
/// keep records of their own, which carry the contended waits,
/// handoffs and free releases (obs/hook.hpp).
///
/// The global tier's ownership crosses threads (the acquiring cohort
/// representative and the releasing last holder are usually different
/// threads), so GlobalLock must either be thread-oblivious or support
/// hold transfer — enforced at compile time below. The local tier is
/// always locked and unlocked by the same thread, so any mutex with a
/// try_lock works.
template <typename GlobalLock, typename LocalLock,
          typename Map = TopologyCohortMap>
class CohortLock {
  /// Does the global grant travel between threads as an explicit token?
  static constexpr bool kGlobalTransfer = HoldTransferable<GlobalLock>;
  static_assert(kGlobalTransfer || ThreadObliviousUnlock<GlobalLock>,
                "the cohort global tier is released by a different thread "
                "than acquired it: GlobalLock must implement "
                "export_hold()/adopt_hold() or declare "
                "kThreadObliviousUnlock");
  static_assert(
      requires(GlobalLock& g, LocalLock& l) {
        { g.try_lock() } -> std::convertible_to<bool>;
        { l.try_lock() } -> std::convertible_to<bool>;
      },
      "lock() tries the local tier before queueing on it and try_lock() "
      "tries both tiers: both components must offer try_lock()");

 public:
  /// The tiers, named so the catalogue can derive the wait modes the
  /// composition honors from both (catalog/capability.hpp).
  using global_lock_type = GlobalLock;
  using local_lock_type = LocalLock;

  /// Default local-handoff budget.
  static constexpr std::size_t kDefaultBudget = 16;

  /// `budget`: maximum consecutive intra-cohort handoffs before the
  /// global lock must be released. `policy` is forwarded to whichever
  /// component locks take a wait policy (a hardwired spinner like the
  /// ticket lock simply ignores it), including the local locks of
  /// cohorts built later.
  explicit CohortLock(std::size_t budget = kDefaultBudget,
                      qsv::wait_policy policy = qsv::get_default_wait_policy(),
                      Map map = Map{})
      : map_(std::move(map)),
        budget_(budget),
        policy_(policy),
        global_(policy),
        cohorts_(map_.cohort_count(qsv::platform::kMaxThreads)) {
    if (cohorts_.empty()) detail::cohort_fatal("cohort map yields no cohorts");
    rec_.enroll(name(), this, &CohortLock::read_tallies);
  }
  CohortLock(const CohortLock&) = delete;
  CohortLock& operator=(const CohortLock&) = delete;
  ~CohortLock() {
    rec_.retire();  // unregister before the slabs it reads die
    for (auto& slot : cohorts_) {
      // relaxed: the instance is quiescent and no longer listed.
      delete slot.load(std::memory_order_relaxed);
    }
  }

  void lock() {
    Cohort& c = my_cohort();
    if (!c.local.try_lock()) {
      // Commit before waiting: a releasing holder that reads
      // pending > 0 may leave the global grant behind for us.
      c.pending.fetch_add(1, std::memory_order_relaxed);  // relaxed: below
      c.local.lock();
      // relaxed: pending is a hint for the holder's pass-local decision;
      // the local lock's own handoff carries all data ordering, and a
      // stale hint only costs one unnecessary global release.
      c.pending.fetch_sub(1, std::memory_order_relaxed);
    }
    if (c.top_granted) {
      // The previous holder passed the global lock with the local one.
      c.top_granted = false;
      adopt_global(c);
    } else {
      global_.lock.lock();
      c.tally.count_global_acquire();
      c.passes = 0;
    }
    c.tally.count_acquire();  // on the cohort line the local lock guards
  }

  /// Non-blocking attempt. A failed attempt leaves no trace (the local
  /// lock is backed out when the global attempt loses).
  bool try_lock() {
    Cohort& c = my_cohort();
    if (!c.local.try_lock()) return false;
    if (c.top_granted) {
      // Stealing an in-flight local handoff is fine: the committed
      // waiter that was promised the grant will block on the local
      // lock until we release (and re-decide) in unlock().
      c.top_granted = false;
      adopt_global(c);
      c.tally.count_acquire();
      return true;
    }
    if (global_.lock.try_lock()) {
      c.tally.count_global_acquire();
      c.tally.count_acquire();
      c.passes = 0;
      return true;
    }
    c.local.unlock();
    return false;
  }

  void unlock() {
    Cohort& c = my_cohort();
    // pending is decremented only while holding the local lock — which
    // we hold — so a nonzero reading proves a committed cohort-mate.
    if (c.passes < budget_ &&
        // relaxed: hint read (see lock()); staleness is benign.
        c.pending.load(std::memory_order_relaxed) > 0) {
      ++c.passes;
      // Detach the global hold from this thread so whichever cohort-mate
      // takes the local lock next can release it; the local lock's
      // release/acquire ordering carries the token.
      if constexpr (kGlobalTransfer) {
        c.global_hold = global_.lock.export_hold();
      }
      c.top_granted = true;
      rec_.count_local_pass();
      c.local.unlock();
      return;
    }
    // Budget spent or cohort drained: let other cohorts in. Global
    // first, so a cohort-mate that sneaks in never waits on a global
    // lock we still hold.
    c.passes = 0;
    c.tally.count_global_release();  // before the release: still ours
    global_.lock.unlock();
    c.local.unlock();
  }

  static constexpr const char* name() noexcept { return "cohort"; }

  std::size_t budget() const noexcept { return budget_; }
  /// Size of the cohort table: every cohort the map can name.
  std::size_t cohort_count() const noexcept { return cohorts_.size(); }

  /// Per-instance state so far: the global lock, the cohort table and
  /// one padded slab (local lock + handoff fields) per cohort used.
  std::size_t footprint_bytes() const noexcept {
    std::size_t built = 0;
    for (const auto& slot : cohorts_) {
      // relaxed: a count of installed slabs, nothing read through them.
      if (slot.load(std::memory_order_relaxed) != nullptr) ++built;
    }
    return sizeof(GlobalLock) + cohorts_.size() * sizeof(cohorts_[0]) +
           built * sizeof(Slab);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  /// Per-cohort state. `local` serializes the cohort; `pending` counts
  /// cohort-mates committed to acquiring it; `top_granted` and `passes`
  /// are owned by the local lock's holder (carried between holders by
  /// the lock's release/acquire ordering).
  struct Cohort {
    LocalLock local;
    std::atomic<std::size_t> pending{0};
    bool top_granted = false;
    std::size_t passes = 0;
    /// The exported global hold riding along a local pass (only used
    /// when the global tier is HoldTransferable).
    void* global_hold = nullptr;
    /// On the same line: acquisitions are owned by the local lock's
    /// holder, global tenures by the global lock's.
    [[no_unique_address]] qsv::obs::CohortTally tally;

    explicit Cohort(qsv::wait_policy p)
      requires std::constructible_from<LocalLock, qsv::wait_policy>
        : local(p) {}
    explicit Cohort(qsv::wait_policy)
      requires(!std::constructible_from<LocalLock, qsv::wait_policy>)
        : local() {}
  };
  using Slab = qsv::platform::Padded<Cohort>;

  /// Wraps the global lock so construction can forward the wait policy
  /// exactly when the component accepts one.
  struct GlobalHolder {
    GlobalLock lock;
    explicit GlobalHolder(qsv::wait_policy p)
      requires std::constructible_from<GlobalLock, qsv::wait_policy>
        : lock(p) {}
    explicit GlobalHolder(qsv::wait_policy)
      requires(!std::constructible_from<GlobalLock, qsv::wait_policy>)
        : lock() {}
  };

  /// Consume an inherited global grant: attach the traveling hold to
  /// the calling thread (no-op for thread-oblivious global tiers).
  void adopt_global(Cohort& c) {
    if constexpr (kGlobalTransfer) {
      global_.lock.adopt_hold(c.global_hold);
      c.global_hold = nullptr;
    }
  }

  static void read_tallies(const void* self,
                           qsv::obs::HotCounts& out) noexcept {
    for (const auto& slot : static_cast<const CohortLock*>(self)->cohorts_) {
      // acquire: pairs with the installing CAS (a slab being built is
      // skipped, never read half-constructed).
      if (const Slab* s = slot.load(std::memory_order_acquire)) {
        s->value.tally.add_to(out);
      }
    }
  }

  Cohort& my_cohort() {
    const std::size_t c = map_.my_cohort();
    if (c >= cohorts_.size()) {
      detail::cohort_fatal("thread index exceeds cohort table");
    }
    // acquire: pairs with the installing CAS in install_cohort().
    Slab* s = cohorts_[c].load(std::memory_order_acquire);
    if (s == nullptr) [[unlikely]] s = install_cohort(c);
    return s->value;
  }

  /// Build cohort `c`'s slab on its first use. Racing first users each
  /// build one; the first CAS wins and the losers delete theirs.
  [[gnu::noinline]] Slab* install_cohort(std::size_t c) {
    auto* fresh = new Slab(policy_);
    Slab* seen = nullptr;
    // acq_rel: publish the constructed slab to every later user;
    // acquire on failure: adopt the slab another thread installed.
    if (cohorts_[c].compare_exchange_strong(seen, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;
    return seen;
  }

  Map map_;
  std::size_t budget_;
  /// The policy the local locks of cohorts built later are given.
  qsv::wait_policy policy_;
  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;
  GlobalHolder global_;
  /// One slot per cohort the map can name, null until the cohort's
  /// first use; a built slab stays put until the lock dies (component
  /// locks are neither copyable nor movable).
  std::vector<std::atomic<Slab*>> cohorts_;
};

}  // namespace qsv::hier
