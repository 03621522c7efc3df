// fc_executor.hpp — the flat-combining delegation executor.
//
// Flat combining (Hendler, Incze, Shavit, Tzafrir) inverts the lock
// contract: instead of every thread acquiring the lock to run its own
// critical section, a thread *publishes* its operation on a per-thread
// publication record and whoever currently holds the lock applies the
// whole backlog in one batch before releasing. N lock handoffs — N
// cache-line migrations of the lock word AND of the protected data —
// collapse into one pass over records by a thread whose cache is
// already warm. This is the same remote-reference arithmetic that
// motivates the QSV queue locks, taken one step further: don't just
// queue the waiters, queue the *work*.
//
// FcExecutor is that protocol over ANY catalogue mutex:
//
//   FcExecutor<qsv::core::QsvMutex> exec;
//   exec.run([&] { /* runs under the lock, possibly on another thread */ });
//
// Design notes, in the house idiom:
//   * The election comes first. run() calls try_lock before publishing
//     anything, and a winner runs its own closure inline: no record, no
//     scan, no RMW besides the lock's own and the tenure-end epoch bump
//     — the uncontended price of the QSV variable itself. Only a loser
//     publishes. (Queueing for the lock instead of try_lock would
//     re-create the handoff chain combining exists to avoid.)
//   * A loser raises an advisory pending flag after it posts, storing
//     only when the flag reads clear; a holder scans the publication
//     list only when the flag reads raised, and clears it before the
//     scan. A saturated executor thus sees about one flag write per
//     tenure, not one per loser. A stale read cannot strand a poster:
//     every tenure ends with release-then-epoch-bump whatever the flag
//     says, the bump is the one wake event, and a poster that missed a
//     scan retries its election after it, re-raising the flag each
//     time it loses. Losers wait on the epoch through the runtime wait
//     layer (qsv::wait_policy — spin, yield, park, adaptive all work)
//     and return as soon as their own record is served.
//   * A tenure applies at most `max_passes` scans (the combine-pass
//     budget): combining must not let one holder serve an unbounded
//     stream while its own caller waits behind the batch.
//   * Publication records live in a per-executor table indexed by the
//     dense thread index (platform::thread_index()), allocated on a
//     thread's first lost election. Lookup and memory grow with neither
//     the executors a thread used before nor the threads that ever
//     posted: an index is recycled only after its thread exited, whose
//     record is idle, so a later thread inherits record and list links
//     whole. A thread whose index lies past the table (more than
//     platform::kMaxThreads live threads) has no record: after a lost
//     election it queues on the lock and runs its closure inline.
//   * Records idle for more than `eviction_idle` tenures are unlinked
//     (aging), so one-shot threads do not tax every future scan. Only
//     interior records are unlinked — new records CAS themselves onto
//     the list head concurrently, and the head is the one link the
//     combiner does not own.
//   * Stats are exact without RMWs: only the lock holder writes them.
//
// FcExecutor also exposes the mutex face (lock/try_lock/unlock), so
// qsv::fc_mutex is simultaneously a std-conforming lock and a
// delegation server: raw unlock() serves the posted backlog (gated on
// the same flag) before releasing. PlainExecutor is the control: same
// run() surface, ordinary lock-execute-unlock, used by the bench pairs
// (fc/* vs plain/*).
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/qsv_mutex.hpp"
#include "platform/cache.hpp"
#include "platform/thread_id.hpp"
#include "platform/wait.hpp"
#include "qsv/wait.hpp"

namespace qsv::combining {

namespace detail {
/// Local face probe (capability.hpp has the catalogue-wide twin; the
/// combining layer must not depend on the catalogue).
template <typename M>
concept LockHasTry = requires(M& m) {
  { m.try_lock() } -> std::convertible_to<bool>;
};

/// Construct the underlying mutex with the executor's wait policy when
/// it accepts one; default-construct otherwise (e.g. CohortLock, whose
/// constructor vocabulary is budget-first).
template <typename M, bool = std::is_constructible_v<M, qsv::wait_policy>>
struct LockSlot {
  explicit LockSlot(qsv::wait_policy policy) : lock(policy) {}
  M lock;
};
template <typename M>
struct LockSlot<M, false> {
  explicit LockSlot(qsv::wait_policy) : lock() {}
  M lock;
};
}  // namespace detail

/// Tuning knobs for one executor instance.
struct FcConfig {
  /// Max combine scans per lock tenure. 1 = serve each batch once;
  /// larger values let the holder absorb work arriving mid-tenure.
  std::size_t max_passes = 8;
  /// A record idle (no posted op) for more than this many tenures
  /// (Stats::tenures, inline wins included) is unlinked from the
  /// publication list by the next scan and re-enlists on next use.
  std::uint64_t eviction_idle = 512;
};

template <typename Mutex = qsv::core::QsvMutex>
class FcExecutor {
 public:
  /// Lifetime combining counters. Exact: every field is written only by
  /// the executor's lock holder (a load and a store, no RMW). stats()
  /// reads them without the lock — quiesce before trusting totals.
  struct Stats {
    /// Lock tenures that served run() work: every election run() wins,
    /// inline or after publishing, every lock() by a thread past the
    /// record table, and every mutex-face unlock() that scanned. Also
    /// the eviction clock.
    std::uint64_t tenures = 0;
    /// Publication-list scans. An inline win that finds the pending
    /// flag clear scans nothing.
    std::uint64_t passes = 0;
    /// run() closures executed, by their own caller or by a combiner.
    std::uint64_t applied = 0;
  };

  explicit FcExecutor(qsv::wait_policy policy = qsv::get_default_wait_policy(),
                      FcConfig cfg = FcConfig{})
      : cfg_(cfg), waiter_(policy), slot_(policy) {}
  FcExecutor(const FcExecutor&) = delete;
  FcExecutor& operator=(const FcExecutor&) = delete;
  ~FcExecutor() {
    // relaxed: teardown; no thread may still be inside the executor.
    for (auto& chunk : table_) delete chunk.load(std::memory_order_relaxed);
  }

  /// Execute `f` under the executor's mutual exclusion. Returns after
  /// `f` has run — inline if this thread won the election, else on
  /// whichever thread combined it. `f`'s side effects are visible to
  /// the caller on return (release/acquire on the record state). `f`
  /// must not recursively call into the same executor.
  template <typename F>
  void run(F&& f) {
    if constexpr (detail::LockHasTry<Mutex>) {
      if (slot_.lock.try_lock()) {
        run_held(f);
        return;
      }
      Record* r = post(f);
      if (r == nullptr) {
        // No record slot for this thread: wait for the lock instead.
        slot_.lock.lock();
        run_held(f);
        return;
      }
      for (;;) {
        const std::uint32_t e = epoch_.load(std::memory_order_acquire);
        if (served(r)) return;
        if (slot_.lock.try_lock()) {
          combine(r);
          release_tenure();
          return;
        }
        if (served(r)) return;
        // The op may have been evicted between post and now, or a scan
        // may have cleared the flag without reaching it; re-arm both
        // before sleeping so the next tenure can see it.
        enlist(r);
        raise_pending();
        // Parked waiters sleep on the epoch: the bump that ends the
        // serving tenure follows every kIdle store.
        waiter_.wait_until(epoch_, [this, e, r]() noexcept {
          return epoch_.load(std::memory_order_acquire) != e || served(r);
        });
      }
    } else {
      // No try_lock: queue on the mutex like any waiter, then serve
      // whatever is pending (possibly only our own record).
      Record* r = post(f);
      slot_.lock.lock();
      if (r == nullptr) {
        run_held(f);
        return;
      }
      if (!served(r)) combine(r);
      release_tenure();
    }
  }

  // ------------------------------------------------ mutex face
  // fc_mutex is also a plain lock: raw critical sections serialize with
  // delegated ones on the same underlying mutex, and every release —
  // raw or combining — ends a tenure (epoch bump + wake) so delegators
  // parked behind a raw holder retry their election.

  void lock() { slot_.lock.lock(); }

  bool try_lock()
    requires detail::LockHasTry<Mutex>
  {
    return slot_.lock.try_lock();
  }

  /// Serve the posted backlog (one scan) if the pending flag is raised,
  /// then release.
  void unlock() {
    if (take_pending()) {
      const std::uint64_t t = open_tenure();
      close_tenure(1, scan(t));
    }
    release_tenure();
  }

  // ------------------------------------------------ introspection

  Stats stats() const {
    // relaxed: stat snapshot; callers quiesce before trusting totals.
    return {stat_tenures_.load(std::memory_order_relaxed),
            stat_passes_.load(std::memory_order_relaxed),
            stat_applied_.load(std::memory_order_relaxed)};
  }

  const FcConfig& config() const { return cfg_; }

  /// Records currently linked into the publication list (takes the
  /// lock; test/diagnostic surface for the eviction policy).
  std::size_t active_records() {
    slot_.lock.lock();
    std::size_t n = 0;
    // relaxed: link walk under the combiner lock; every link was
    // written either under this lock or before the head-push release.
    for (Record* c = list_.load(std::memory_order_acquire); c != nullptr;
         c = c->next.load(std::memory_order_relaxed)) {  // relaxed: see above
      ++n;
    }
    release_tenure();
    return n;
  }

  static constexpr const char* name() noexcept { return "fc"; }

 private:
  enum : std::uint32_t { kIdle = 0, kPosted = 1 };

  /// One publication record. Line-aligned via Padded storage; owned by
  /// the executor's record table.
  struct Record {
    std::atomic<Record*> next{nullptr};   ///< list link; combiner-owned
                                          ///< once enlisted
    std::atomic<std::uint32_t> state{kIdle};
    void (*apply)(void*) = nullptr;       ///< trampoline to the closure
    void* ctx = nullptr;                  ///< closure on the poster's stack
    std::atomic<bool> enlisted{false};
    std::atomic<std::uint64_t> last_active{0};  ///< tenure of last use
  };
  static_assert(sizeof(qsv::platform::Padded<Record>) ==
                    qsv::platform::kFalseSharingRange,
                "FcExecutor::Record's slot is not one line pair");
  static_assert(alignof(qsv::platform::Padded<Record>) ==
                    qsv::platform::kFalseSharingRange,
                "FcExecutor::Record's slot is not line-pair aligned");

  /// Records for one run of kChunkSlots consecutive thread indices.
  /// A slot is touched only by the thread holding its index.
  static constexpr std::size_t kChunkSlots = 64;
  struct Chunk {
    std::array<std::unique_ptr<qsv::platform::Padded<Record>>, kChunkSlots>
        slot;
  };
  static constexpr std::size_t kChunks =
      (qsv::platform::kMaxThreads + kChunkSlots - 1) / kChunkSlots;

  /// Owner-only counter update: every writer holds the lock, so a load
  /// and a store keep the count exact without an RMW. Returns the new
  /// value.
  static std::uint64_t add(std::atomic<std::uint64_t>& c, std::uint64_t n) {
    // relaxed: written only under the lock; readers take snapshots.
    const std::uint64_t v = c.load(std::memory_order_relaxed) + n;
    c.store(v, std::memory_order_relaxed);  // relaxed: as above
    return v;
  }

  /// Start a tenure (caller holds the lock); returns its eviction-clock
  /// value.
  std::uint64_t open_tenure() { return add(stat_tenures_, 1); }

  void close_tenure(std::uint64_t passes, std::uint64_t applied) {
    add(stat_passes_, passes);
    add(stat_applied_, applied);
  }

  /// The tenure of a thread that holds the lock for its own op: run
  /// `f` here, serve the posters if the pending flag is raised, release.
  template <typename F>
  void run_held(F& f) {
    f();
    const std::uint64_t t = open_tenure();
    std::uint64_t passes = 0;
    std::uint64_t applied = 1;
    if (take_pending()) serve(t, passes, applied);
    close_tenure(passes, applied);
    release_tenure();
  }

  /// Up to max_passes scans, stopping early once a scan finds nothing.
  void serve(std::uint64_t tenure, std::uint64_t& passes,
             std::uint64_t& applied) {
    while (passes < cfg_.max_passes) {
      ++passes;
      const std::size_t n = scan(tenure);
      applied += n;
      if (n == 0) break;
    }
  }

  /// A combining tenure by an election loser that won a retry. Its own
  /// record is served before return — normally by the first scan; by
  /// direct application if an eviction raced with the post and
  /// unlinked it.
  void combine(Record* self) {
    const std::uint64_t t = open_tenure();
    std::uint64_t passes = 0;
    std::uint64_t applied = 0;
    (void)take_pending();  // this tenure scans whatever the flag says
    serve(t, passes, applied);
    // relaxed: self is this thread's own record — it posted it, so the
    // kPosted check and the apply read the thread's own writes.
    if (self->state.load(std::memory_order_relaxed) == kPosted) {
      self->apply(self->ctx);
      // relaxed: eviction bookkeeping; kIdle below is the release edge.
      self->last_active.store(t, std::memory_order_relaxed);
      self->state.store(kIdle, std::memory_order_release);
      ++applied;
    }
    close_tenure(passes, applied);
  }

  /// One pass over the publication list: apply every posted op, unlink
  /// stale interior records. Returns ops applied. Caller holds the lock.
  std::size_t scan(std::uint64_t tenure) {
    std::size_t applied = 0;
    Record* prev = nullptr;
    Record* cur = list_.load(std::memory_order_acquire);
    while (cur != nullptr) {
      // relaxed: link walk under the combiner lock (see active_records()).
      Record* next = cur->next.load(std::memory_order_relaxed);
      if (cur->state.load(std::memory_order_acquire) == kPosted) {
        cur->apply(cur->ctx);
        // relaxed: eviction bookkeeping; kIdle below is the release edge.
        cur->last_active.store(tenure, std::memory_order_relaxed);
        cur->state.store(kIdle, std::memory_order_release);
        ++applied;
        prev = cur;
      } else if (prev != nullptr &&
                 // relaxed: eviction heuristic; staleness is harmless.
                 tenure - cur->last_active.load(std::memory_order_relaxed) >
                     cfg_.eviction_idle) {
        // Unlink BEFORE clearing enlisted: the owner's re-enlist
        // acquires `enlisted`, so its head-push happens-after the
        // record left the list. Head records are never unlinked —
        // concurrent enlists CAS the head and that link is theirs.
        // relaxed: unlink under the combiner lock; the owner re-reads
        // its links only after the release store of enlisted below.
        prev->next.store(next, std::memory_order_relaxed);
        cur->next.store(nullptr, std::memory_order_relaxed);  // relaxed: as above
        cur->enlisted.store(false, std::memory_order_release);
      } else {
        prev = cur;
      }
      cur = next;
    }
    return applied;
  }

  /// End a tenure: release the mutex, then advance the epoch and wake
  /// election losers. Order matters — bumping before the release would
  /// let every waiter lose try_lock against us and go back to sleep
  /// with no further wake coming.
  void release_tenure() {
    slot_.lock.unlock();
    epoch_.fetch_add(1, std::memory_order_release);
    waiter_.notify_all(epoch_);
  }

  /// Publish `f` on the caller's record: post, enlist, raise the
  /// pending flag. nullptr (nothing published) if the caller's thread
  /// index lies past the record table.
  template <typename F>
  Record* post(F& f) {
    Record* r = my_record();
    if (r == nullptr) return nullptr;
    r->ctx = const_cast<void*>(static_cast<const void*>(std::addressof(f)));
    r->apply = [](void* p) {
      (*static_cast<std::remove_reference_t<F>*>(p))();
    };
    // relaxed: eviction bookkeeping — last_active only feeds the idle
    // heuristic, and a stale clock read merely evicts a little early
    // or late.
    r->last_active.store(stat_tenures_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    r->state.store(kPosted, std::memory_order_release);
    enlist(r);
    raise_pending();
    return r;
  }

  /// Raise the pending flag — a store only when it reads clear, so the
  /// losers of one tenure share a single write. Release: a holder that
  /// reads the flag raised also sees the raiser's posted record.
  void raise_pending() {
    // relaxed: the test load; the store below is the publishing edge.
    if (!pending_.load(std::memory_order_relaxed)) {
      pending_.store(true, std::memory_order_release);
    }
  }

  /// Holder side (caller holds the lock): true if the pending flag was
  /// raised, which it clears before the caller scans.
  bool take_pending() {
    if (!pending_.load(std::memory_order_acquire)) return false;
    // relaxed: only the holder clears; a raise racing this store is
    // either seen by the scan that follows or re-raised by its poster
    // after the next lost retry (see the header comment).
    pending_.store(false, std::memory_order_relaxed);
    return true;
  }

  /// True once a combiner has applied the record's op (acquire: the
  /// op's side effects are visible from here on).
  static bool served(const Record* r) {
    return r->state.load(std::memory_order_acquire) != kPosted;
  }

  /// LIFO head push; idempotent per record. The acquire on `enlisted`
  /// pairs with the evicting combiner's release so a re-push never
  /// races the unlink of the same record.
  void enlist(Record* r) {
    if (r->enlisted.load(std::memory_order_acquire)) return;
    // relaxed: only our own record's flag; the head-push CAS below is
    // the release that publishes the record (flag included).
    r->enlisted.store(true, std::memory_order_relaxed);
    // relaxed: head sample; the CAS validates it (failure order too).
    Record* head = list_.load(std::memory_order_relaxed);
    do {
      r->next.store(head, std::memory_order_relaxed);  // relaxed: as above
    } while (!list_.compare_exchange_weak(head, r, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// The calling thread's record: slot thread_index() of the table,
  /// allocated on first use; nullptr past the table. A recycled index
  /// hands a later thread the idle record of an exited one; the index
  /// pool's mutex orders the two threads' accesses.
  Record* my_record() {
    const std::size_t i = qsv::platform::thread_index();
    if (i >= kChunks * kChunkSlots) return nullptr;
    std::atomic<Chunk*>& cell = table_[i / kChunkSlots];
    Chunk* chunk = cell.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      // A losing racer adopts the winner's chunk (acquire on failure).
      if (cell.compare_exchange_strong(chunk, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        chunk = fresh.release();
      }
    }
    auto& slot = chunk->slot[i % kChunkSlots];
    if (slot == nullptr) {
      slot = std::make_unique<qsv::platform::Padded<Record>>();
    }
    return &slot->value;
  }

  FcConfig cfg_;
  mutable qsv::platform::RuntimeWait waiter_;
  detail::LockSlot<Mutex> slot_;

  /// Loser-written line: enlist CASes and pending-flag raises; the
  /// holder reads both and clears the flag.
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<Record*> list_{nullptr};
  std::atomic<bool> pending_{false};
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> epoch_{0};
  /// Holder-written line.
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint64_t> stat_tenures_{0};
  std::atomic<std::uint64_t> stat_passes_{0};
  std::atomic<std::uint64_t> stat_applied_{0};
  /// Read-mostly line: written only when a chunk is first allocated.
  alignas(qsv::platform::kFalseSharingRange)
      std::array<std::atomic<Chunk*>, kChunks> table_{};
};

/// The control executor: identical run() surface, no combining — plain
/// lock, execute, unlock. Every fc/* container has a plain/* twin built
/// on this so the bench isolates the combining effect itself.
template <typename Mutex = qsv::core::QsvMutex>
class PlainExecutor {
 public:
  /// Shape-compatible with FcExecutor::Stats; always zero — nothing
  /// combines here.
  using Stats = typename FcExecutor<Mutex>::Stats;

  explicit PlainExecutor(
      qsv::wait_policy policy = qsv::get_default_wait_policy())
      : slot_(policy) {}
  PlainExecutor(const PlainExecutor&) = delete;
  PlainExecutor& operator=(const PlainExecutor&) = delete;

  template <typename F>
  void run(F&& f) {
    slot_.lock.lock();
    std::forward<F>(f)();
    slot_.lock.unlock();
  }

  void lock() { slot_.lock.lock(); }
  void unlock() { slot_.lock.unlock(); }
  bool try_lock()
    requires detail::LockHasTry<Mutex>
  {
    return slot_.lock.try_lock();
  }

  Stats stats() const { return Stats{}; }

  static constexpr const char* name() noexcept { return "plain"; }

 private:
  detail::LockSlot<Mutex> slot_;
};

/// Linearizable fetch&add served by delegation — the canonical "hello
/// world" of flat combining and tab3's fourth counter. The value lives
/// in one atomic word written only under the executor, so read() is a
/// plain acquire load.
template <typename Executor = FcExecutor<>>
class BasicFcCounter {
 public:
  BasicFcCounter() = default;
  explicit BasicFcCounter(qsv::wait_policy policy) : exec_(policy) {}

  /// Returns the value before the addition (linearizable fetch&add).
  std::int64_t fetch_add(std::int64_t delta) noexcept {
    std::int64_t prior = 0;
    exec_.run([&]() noexcept {
      // relaxed: the executor serializes all closures under its lock
      // and run() itself carries the acquire/release handoff.
      prior = value_.load(std::memory_order_relaxed);
      value_.store(prior + delta, std::memory_order_relaxed);  // relaxed: as above
    });
    return prior;
  }

  void add(std::int64_t delta) noexcept { (void)fetch_add(delta); }

  std::int64_t read() const noexcept {
    return value_.load(std::memory_order_acquire);
  }

  typename Executor::Stats stats() const { return exec_.stats(); }

  static constexpr const char* name() noexcept { return "fc-counter"; }

 private:
  mutable Executor exec_;
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::int64_t> value_{0};
};

using FcCounter = BasicFcCounter<>;

}  // namespace qsv::combining
