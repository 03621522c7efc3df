// hook.hpp — the one narrow seam between the primitives and the
// telemetry registry (src/obs/registry.hpp).
//
// Every instrumented primitive carries its own telemetry in three
// pieces, placed by what touches them:
//
//   * a Tally right after the lock word, on its 64-byte line: the
//     holder-owned counts of uncontended acquisitions and free
//     releases. The lock's holder is their only writer, so they are
//     bumped with a relaxed load and store right after the exchange or
//     CAS that already owns that line — no extra line, no extra RMW;
//   * a LockRec: the cold-block pointer, the registration number, a
//     32-bit slot number and a 32-bit kind index (0 while
//     unregistered). The registry (registry.cpp) keeps one pointer to
//     the record, in the slot its number names, and what every
//     instance of a type shares (the kind name, the tally reader and
//     where the LockRec sits inside the instance) once per type, in the
//     kind-table entry its index names. So construction allocates
//     nothing and no other record's coming or going writes the
//     instance. QsvMutex (also the catalogue's `mcs` row) and
//     QsvTimeoutMutex are each one 64-byte line: the lock word, its
//     Tally, the LockRec and the RuntimeWait;
//   * a ColdRec on the heap, allocated when the first contended
//     acquisition starts waiting and freed at unregistration: contended
//     counts, handoffs, the wait EWMA and histogram, watermarks, the
//     held-since stamp and the cohort pass count. Contended and handoff
//     paths write only here, never on the lock word's line.
//
// Shared entry (QsvRwLock) counts into the reader's own stripe word —
// the same RMW that admits it — so reader entry stays one RMW on one
// line the thread effectively owns.
//
// Layering: this is the only obs/ header the platform and primitive
// layers may include (qsvlint's layering rule carves out exactly this
// file, the same dependency-inversion move as platform/chk_hook.hpp
// and platform/hazard_hook.hpp). It defines the in-object records
// inline and *declares* the cold registration entry points, which live
// in registry.cpp — so including it pulls in no registry machinery.
//
// Hot-path budget: no extra written line and no extra RMW per
// uncontended event; stripes only for shared entry. With the whole
// lock on one line, every arrival's exchange takes that line, so a
// handoff must read nothing of it. The queue locks carry what a
// handoff needs in their queue nodes instead: right after its exchange
// an acquirer copies the wait policy into its own node, and a waiter
// fetches the cold block into it before it links behind its
// predecessor (LockRec::waiter_cold()). A release then reads only its
// own node and writes the successor's grant, and the granted waiter
// counts both its contended acquisition and the handoff that admitted
// it in the cold block (ColdRec::count_granted()): in a queue lock
// each handoff admits exactly one contended acquisition. QsvMutex (and
// QsvTimeoutMutex's release) work this way; the other protocols call
// note_release() on every release, which reads cold_ on the record's
// line.
// Clock reads, the cold block and every RMW of the layer sit on
// contended paths, which already cost a cache-miss chain. The whole
// layer compiles out under -DQSV_OBS=0 (CMake option QSV_OBS=OFF): the
// records become empty, LockRec::get() a constant nullptr, and every
// hook folds away.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "platform/histogram.hpp"
#include "platform/timing.hpp"

#ifndef QSV_OBS
#define QSV_OBS 1
#endif

namespace qsv::obs {

namespace detail {
/// Runtime master switch, consulted at *registration* (construction)
/// time only: a primitive constructed while disabled is never
/// registered, never times a wait and never allocates a cold block.
/// Its in-line tallies still tick — a load and a store on a line its
/// own RMW already owns, so a disabled instance costs what a
/// registered one does on the uncontended path — but nothing reads
/// them. Default on: always-on production observability; abl7 prices
/// registration and tools/obs_gate.py the tallies themselves.
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

inline bool enabled() noexcept {
  // relaxed: construction-time gate; no data is published under it.
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  // relaxed: as above — affects only future registrations.
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// What a primitive's in-object tallies add up to, summed by the
/// primitive's reader (LockRec::Reader) when the registry asks.
struct HotCounts {
  std::uint64_t acquisitions = 0;  ///< uncontended exclusive acquisitions
  std::uint64_t free_releases = 0;
  std::uint64_t shared = 0;  ///< uncontended shared acquisitions
  std::uint64_t global_acquires = 0;
  std::uint64_t global_releases = 0;
};

/// Sums a primitive's in-object tallies; `instance` is the primitive.
using TallyReader = void (*)(const void* instance, HotCounts& out) noexcept;

/// The contended side of one instance's record. Allocated when the first
/// contended acquisition starts waiting, freed when the instance
/// unregisters. Counters are relaxed RMWs: contended paths already cost
/// a cache-miss chain, and shared waiters record concurrently.
struct ColdRec {
  std::atomic<std::uint64_t> contended{0};  ///< exclusive, waited
  std::atomic<std::uint64_t> contended_shared{0};
  /// A queue lock's granted waiters: each is one contended acquisition
  /// and the one handoff that admitted it, counted once (the only
  /// handoffs the registry counts).
  std::atomic<std::uint64_t> granted{0};
  std::atomic<std::uint64_t> local_passes{0};
  std::atomic<std::uint64_t> wait_ewma_ns{0};
  std::atomic<std::uint64_t> max_wait_ns{0};
  std::atomic<std::uint64_t> max_hold_ns{0};
  /// Grant time of the current contended holder; 0 otherwise.
  std::atomic<std::uint64_t> held_since_ns{0};
  /// Log2-bucketed contended-wait histogram (platform/histogram.hpp
  /// bucketing, atomic buckets because waiters record concurrently).
  std::atomic<std::uint64_t>
      wait_hist[qsv::platform::LogHistogram::kBuckets]{};
  /// Display name from set_name(); empty means "kind#N", N the
  /// registration number. Written and read only under the registry
  /// mutex.
  std::string name;

  void record_wait(std::uint64_t wait_ns) noexcept {
    wait_hist[qsv::platform::LogHistogram::bucket_of(wait_ns)].fetch_add(
        1, std::memory_order_relaxed);  // relaxed: moving bucket tally
    // EWMA with alpha = 1/8, the same step rule as adaptive
    // RuntimeWait's poll-count word but in nanoseconds; racy updates
    // drop a sample, which the smoothing absorbs.
    // relaxed: calibration estimate, not protocol state.
    const std::uint64_t e = wait_ewma_ns.load(std::memory_order_relaxed);
    const auto delta =
        static_cast<std::int64_t>(wait_ns) - static_cast<std::int64_t>(e);
    std::int64_t step = delta >> 3;
    if (step == 0 && delta > 0) step = 1;
    wait_ewma_ns.store(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(e) + step),
        std::memory_order_relaxed);  // relaxed: as above
    max_relaxed(max_wait_ns, wait_ns);
  }

  /// An exclusive acquisition that waited since `t0` now holds the
  /// lock: feeds the wait statistics and stamps the hold start
  /// (holder-owned: the same holder's close_hold() clears it).
  void count_contended(std::uint64_t t0) noexcept { count_hold(contended, t0); }

  /// A queue lock's waiter holds the lock after waiting since `t0`. A
  /// queue lock admits each contended acquisition with exactly one
  /// handoff, so the granted side counts the pair as one event and the
  /// releaser touches no record. One tally, not two: a second counter
  /// update on the granted side measurably slowed a contended handoff
  /// (DESIGN.md, "One observability spine").
  void count_granted(std::uint64_t t0) noexcept { count_hold(granted, t0); }

  /// The holder of a contended acquisition releases: closes the hold
  /// stamp into the hold watermark.
  void close_hold() noexcept {
    // relaxed: holder-owned stamp (see count_contended).
    const std::uint64_t t = held_since_ns.load(std::memory_order_relaxed);
    if (t != 0) {
      max_relaxed(max_hold_ns, qsv::platform::now_ns() - t);
      // relaxed: clearing our own stamp.
      held_since_ns.store(0, std::memory_order_relaxed);
    }
  }

  void count_hold(std::atomic<std::uint64_t>& tally,
                  std::uint64_t t0) noexcept {
    const std::uint64_t now = qsv::platform::now_ns();
    tally.fetch_add(1, std::memory_order_relaxed);  // relaxed: tally
    record_wait(now - t0);
    // relaxed: holder-owned stamp; the lock's own handoff ordering
    // carries it to the releasing (same) holder.
    held_since_ns.store(now, std::memory_order_relaxed);
  }

  /// Racy-but-monotone watermark: a lost race can only lose a sample
  /// to a *larger* concurrent one, never lower the watermark.
  static void max_relaxed(std::atomic<std::uint64_t>& w,
                          std::uint64_t v) noexcept {
    // relaxed: watermark is statistics; CAS retries preserve monotony.
    std::uint64_t cur = w.load(std::memory_order_relaxed);
    // relaxed: both CAS orders — as above.
    while (v > cur &&
           !w.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
    }
  }
};

#if QSV_OBS

/// Holder-owned tallies, placed right after the lock word on its
/// 64-byte line. Only the lock's current holder writes them, and the
/// lock's own release/acquire chain orders one holder's stores before
/// the next holder's loads, so a relaxed load and store counts exactly
/// without an RMW. Readers (the registry) see a slightly stale but
/// never torn value.
class Tally {
 public:
  /// Uncontended acquisition; call right after the winning RMW.
  void count_acquire() noexcept { bump(acquisitions_, 1); }
  /// Free release: call while still holding, before the store or CAS
  /// that frees the lock publishes it ...
  void count_free_release() noexcept { bump(free_releases_, 1); }
  /// ... and take it back when that CAS found a successor (the caller
  /// still holds the lock and goes on to hand it off).
  void uncount_free_release() noexcept { bump(free_releases_, ~0ULL); }

  void add_to(HotCounts& out) const noexcept {
    // relaxed: statistical reads of holder-owned words.
    out.acquisitions += acquisitions_.load(std::memory_order_relaxed);
    // relaxed: as above.
    out.free_releases += free_releases_.load(std::memory_order_relaxed);
  }

 protected:
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t d) noexcept {
    // relaxed: holder-owned word — the lock orders successive holders,
    // so load-then-store loses nothing.
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> free_releases_{0};
};

/// A cohort's tallies (CohortLock): acquisitions plus the global
/// tier's tenures, on the cohort's own line (free releases stay with
/// the component locks). Each word is written only under the lock that
/// serializes its event — the cohort's local lock for acquisitions,
/// the global lock for tenures.
class CohortTally : public Tally {
 public:
  void count_global_acquire() noexcept { bump(global_acquires_, 1); }
  void count_global_release() noexcept { bump(global_releases_, 1); }

  void add_to(HotCounts& out) const noexcept {
    Tally::add_to(out);
    // relaxed: statistical reads of holder-owned words.
    out.global_acquires += global_acquires_.load(std::memory_order_relaxed);
    // relaxed: as above.
    out.global_releases += global_releases_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> global_acquires_{0};
  std::atomic<std::uint64_t> global_releases_{0};
};

class LockRec;

namespace detail {
/// Cold registration entry points, defined in obs/registry.cpp. The
/// declarations live here so primitives (and trace/) never include
/// registry machinery: this header is the whole surface.
/// registry_register() files `rec` under the kind (kind, read, where
/// `rec` sits inside `instance`) and in a slot of its own, then sets
/// its registration number, slot and kind; when the registry's tables
/// cannot grow it leaves the record dark, as if constructed disabled.
void registry_register(LockRec* rec, const char* kind, const void* instance,
                       TallyReader read) noexcept;
void registry_unregister(LockRec* rec) noexcept;
struct RegistryAccess;
}  // namespace detail

/// One primitive instance's registration, embedded in the primitive
/// (the header comment says where). The primitive enroll()s it at the
/// end of its constructor — once every tally it reads is initialized —
/// and retire()s it first thing in its destructor, before any member
/// the Reader walks is destroyed: a registered record is read back
/// through the Reader by every snapshot, so unregistering from
/// ~LockRec (which runs after the members declared after it) would let
/// a concurrent snapshot read destroyed tallies. get() is what the
/// primitive's telemetry() returns: this record when registered, null
/// when the instance was constructed disabled.
class LockRec {
 public:
  using Reader = TallyReader;

  LockRec() = default;
  LockRec(const LockRec&) = delete;
  LockRec& operator=(const LockRec&) = delete;
  ~LockRec() {
    retire();  // no-op when the owner already retired the record
    // relaxed: the instance is quiescent and no longer listed.
    delete cold_.load(std::memory_order_relaxed);
  }

  /// Register `instance` under `kind` when telemetry is enabled;
  /// otherwise stay dark for the instance's whole life.
  void enroll(const char* kind, const void* instance, Reader read) noexcept {
    if (!enabled()) return;
    detail::registry_register(this, kind, instance, read);
  }

  /// Unregister: once this returns no snapshot reads the instance's
  /// tallies. Call it at the top of the primitive's destructor.
  void retire() noexcept {
    if (kind_ == 0) return;
    detail::registry_unregister(this);  // clears kind_ under the mutex
  }

  /// This record when registered, else null.
  const LockRec* get() const noexcept { return kind_ != 0 ? this : nullptr; }

  // ------------------------------------------------ contended hooks

  /// Contended-acquire bracket: call wait_begin_ns() before the wait
  /// (0 when unrecorded) and count_contended_acquire after it. Call it
  /// once whatever a predecessor needs (a queue link) is published: the
  /// first contention allocates the cold block here, so the allocation
  /// overlaps the wait instead of lengthening a critical section.
  std::uint64_t wait_begin_ns() noexcept {
    if (kind_ == 0) return 0;
    cold_or_alloc();
    return qsv::platform::now_ns();
  }

  /// The waiter holds the lock after waiting since `t0`
  /// (ColdRec::count_contended).
  void count_contended_acquire(std::uint64_t t0) noexcept {
    if (kind_ == 0) return;
    if (ColdRec* c = cold_or_alloc()) c->count_contended(t0);
  }

  /// A queue lock's waiter, right after the exchange that queued it,
  /// while the lock's line is still in its cache: the cold block to
  /// count into, or null when the record is dark. The waiter keeps it
  /// in its own queue node, so neither its grant's bookkeeping
  /// (ColdRec::count_granted) nor its release (ColdRec::close_hold)
  /// reads this line again. The lock's first contention allocates the
  /// block here, once per lock.
  ColdRec* waiter_cold() noexcept {
    return kind_ != 0 ? cold_or_alloc() : nullptr;
  }

  /// A reader that had to park. Feeds the wait statistics but not the
  /// hold stamp — shared holds overlap and one word cannot speak for a
  /// batch.
  void count_contended_shared(std::uint64_t t0) noexcept {
    if (kind_ == 0) return;
    const std::uint64_t now = qsv::platform::now_ns();
    if (ColdRec* c = cold_or_alloc()) {
      // relaxed: monotonic tally.
      c->contended_shared.fetch_add(1, std::memory_order_relaxed);
      c->record_wait(now - t0);
    }
  }

  /// Intra-cohort handoff: local and global lock passed together.
  void count_local_pass() noexcept {
    if (kind_ == 0) return;
    if (ColdRec* c = cold_or_alloc()) {
      // relaxed: tally
      c->local_passes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Release by a holder whose acquisition may have been contended:
  /// closes the hold stamp into the hold watermark. Reads this line
  /// and, only once a contended acquisition happened, the cold block.
  void note_release() noexcept {
    // Only a registered record ever gets a cold block, so this one load
    // is the whole check. acquire: pairs with the installing CAS in
    // cold_or_alloc().
    if (ColdRec* c = cold_.load(std::memory_order_acquire)) c->close_hold();
  }

  // ------------------------------------------------- cold snapshots

  std::uint64_t acquisitions() const noexcept {
    return hot().acquisitions + cold_word(&ColdRec::contended) +
           cold_word(&ColdRec::granted);
  }
  std::uint64_t shared_acquisitions() const noexcept {
    return hot().shared + cold_word(&ColdRec::contended_shared);
  }
  std::uint64_t contended() const noexcept {
    return cold_word(&ColdRec::contended) + cold_word(&ColdRec::granted) +
           cold_word(&ColdRec::contended_shared);
  }
  std::uint64_t handoffs() const noexcept {
    return cold_word(&ColdRec::granted);
  }
  std::uint64_t free_releases() const noexcept { return hot().free_releases; }
  std::uint64_t local_passes() const noexcept {
    return cold_word(&ColdRec::local_passes);
  }
  std::uint64_t global_acquires() const noexcept {
    return hot().global_acquires;
  }
  std::uint64_t global_releases() const noexcept {
    return hot().global_releases;
  }
  std::uint64_t max_wait_ns() const noexcept {
    return cold_word(&ColdRec::max_wait_ns);
  }
  std::uint64_t max_hold_ns() const noexcept {
    return cold_word(&ColdRec::max_hold_ns);
  }
  /// Nonzero while the lock is held by an acquisition that was
  /// contended: the live long-hold signal.
  std::uint64_t held_since_ns() const noexcept {
    return cold_word(&ColdRec::held_since_ns);
  }
  /// Smoothed contended-wait (handoff) latency in nanoseconds.
  std::uint64_t wait_ewma_ns() const noexcept {
    return cold_word(&ColdRec::wait_ewma_ns);
  }
  /// Upper bound of the histogram bucket holding the q-quantile
  /// contended wait (0 when no waits were recorded).
  std::uint64_t wait_quantile_ns(double q) const noexcept {
    const ColdRec* c = cold();
    if (c == nullptr) return 0;
    using qsv::platform::LogHistogram;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
      // relaxed: statistical read of a moving bucket.
      total += c->wait_hist[i].load(std::memory_order_relaxed);
    }
    if (total == 0) return 0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(total));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
      // relaxed: statistical read (as above).
      seen += c->wait_hist[i].load(std::memory_order_relaxed);
      if (seen > target) return LogHistogram::bucket_upper(i);
    }
    return LogHistogram::bucket_upper(LogHistogram::kBuckets - 1);
  }

  /// The cold block, or null before the first contended acquisition.
  const ColdRec* cold() const noexcept {
    // acquire: pairs with the installing CAS in cold_or_alloc().
    return cold_.load(std::memory_order_acquire);
  }

  /// The primitive's name() (null when dark), the registered primitive
  /// (null when dark) and its in-object tallies, summed. All three read
  /// the record's entry in the registry's kind table; they are defined
  /// in registry.cpp.
  const char* kind() const noexcept;
  const void* instance() const noexcept;
  HotCounts hot() const noexcept;
  /// This record's slot in the registry's table: fixed while it is
  /// registered, handed to a later record once it retires.
  std::uint32_t slot() const noexcept { return slot_; }

 private:
  friend struct detail::RegistryAccess;

  std::uint64_t cold_word(
      std::atomic<std::uint64_t> ColdRec::*w) const noexcept {
    const ColdRec* c = cold();
    // relaxed: statistical read of a moving counter.
    return c != nullptr ? (c->*w).load(std::memory_order_relaxed) : 0;
  }

  /// The cold block, allocated on first use. Allocation failure leaves
  /// the event unrecorded: telemetry must never take the process down.
  ColdRec* cold_or_alloc() noexcept {
    // acquire: see cold().
    ColdRec* c = cold_.load(std::memory_order_acquire);
    if (c != nullptr) return c;
    return install_cold();
  }
  ColdRec* install_cold() noexcept;  // registry.cpp (out of line: cold)

  std::atomic<ColdRec*> cold_{nullptr};
  /// The registry's count of registrations when this one was made:
  /// orders snapshots and numbers the generated name ("kind#N").
  std::uint64_t stamp_ = 0;
  /// Where the registry keeps its pointer to this record.
  std::uint32_t slot_ = 0;
  /// The record's entry in the registry's kind table, 0 while
  /// unregistered: the contended hooks' whole check. stamp_, slot_ and
  /// kind_ are written only by this record's own registration and
  /// retirement, under the registry mutex.
  std::uint32_t kind_ = 0;
};

// The registry's fields (list links, the reader, the instance, the kind
// name) stay out of the record, so it fits the lock's one line.
static_assert(sizeof(LockRec) <= 24);

/// Reader for primitives whose tallies are one member (`&P::tally_`).
template <typename P, typename T>
P owner_of(T P::*);
template <auto kMember>
void read_member(const void* instance, HotCounts& out) noexcept {
  using P = decltype(owner_of(kMember));
  (static_cast<const P*>(instance)->*kMember).add_to(out);
}

#else  // QSV_OBS == 0: the compile-out arm — everything folds away.

class Tally {
 public:
  void count_acquire() noexcept {}
  void count_free_release() noexcept {}
  void uncount_free_release() noexcept {}
  void add_to(HotCounts&) const noexcept {}
};

class CohortTally : public Tally {
 public:
  void count_global_acquire() noexcept {}
  void count_global_release() noexcept {}
};

/// Keeps the accessor surface so code reading a (never non-null)
/// record still compiles.
class LockRec {
 public:
  using Reader = TallyReader;
  constexpr LockRec() noexcept = default;
  LockRec(const LockRec&) = delete;
  LockRec& operator=(const LockRec&) = delete;

  constexpr void enroll(const char*, const void*, Reader) noexcept {}
  constexpr void retire() noexcept {}
  static constexpr const LockRec* get() noexcept { return nullptr; }
  static constexpr std::uint64_t wait_begin_ns() noexcept { return 0; }
  static constexpr ColdRec* waiter_cold() noexcept { return nullptr; }
  constexpr void count_contended_acquire(std::uint64_t) noexcept {}
  constexpr void count_contended_shared(std::uint64_t) noexcept {}
  constexpr void count_local_pass() noexcept {}
  constexpr void note_release() noexcept {}

  std::uint64_t acquisitions() const noexcept { return 0; }
  std::uint64_t shared_acquisitions() const noexcept { return 0; }
  std::uint64_t contended() const noexcept { return 0; }
  std::uint64_t handoffs() const noexcept { return 0; }
  std::uint64_t free_releases() const noexcept { return 0; }
  std::uint64_t local_passes() const noexcept { return 0; }
  std::uint64_t global_acquires() const noexcept { return 0; }
  std::uint64_t global_releases() const noexcept { return 0; }
  std::uint64_t max_wait_ns() const noexcept { return 0; }
  std::uint64_t max_hold_ns() const noexcept { return 0; }
  std::uint64_t held_since_ns() const noexcept { return 0; }
  std::uint64_t wait_ewma_ns() const noexcept { return 0; }
  std::uint64_t wait_quantile_ns(double) const noexcept { return 0; }
  const ColdRec* cold() const noexcept { return nullptr; }
  const char* kind() const noexcept { return nullptr; }
  const void* instance() const noexcept { return nullptr; }
  HotCounts hot() const noexcept { return {}; }
  std::uint32_t slot() const noexcept { return 0; }
};

template <auto>
void read_member(const void*, HotCounts&) noexcept {}

#endif  // QSV_OBS

/// Append one line to the registry's historical hazard log (the
/// `hazards` face of the introspection endpoint). trace/lock_order.cpp
/// routes every inversion warning here so embedders see warnings that
/// previously went only to stderr. Defined in obs/registry.cpp.
void record_hazard(std::string_view text);

}  // namespace qsv::obs
