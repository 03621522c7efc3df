// capability.hpp — capability tagging for the unified primitive
// catalogue.
//
// Every synchronization primitive in libqsv advertises what it can do
// through a small bitset: exclusive entry, shared entry, non-blocking
// attempts, bounded (timed) entry, episode synchronization. The bits are
// *derived from the type* with concepts — a primitive that grows a new
// face (say, QsvRwLock gaining try_lock) is re-tagged automatically at
// compile time, so the catalogue can never drift from the code.
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>

#include "obs/hook.hpp"
#include "qsv/wait.hpp"

namespace qsv::catalog {

/// One bit per face of a primitive. A catalogue entry's `caps` is the
/// OR of every face its concrete type implements, plus one wait-mode
/// bit per qsv::wait_policy the entry's factory can construct — the
/// per-policy entries the catalogue used to carry ("qsv/yield",
/// "qsv/park", "qsv-episode/park") are now these bits on the one entry.
enum Capability : std::uint32_t {
  kExclusive  = 1u << 0,  ///< lock() / unlock()
  kTry        = 1u << 1,  ///< try_lock()
  kShared     = 1u << 2,  ///< lock_shared() / unlock_shared()
  kTimed      = 1u << 3,  ///< try_lock_for() (and try_lock_until())
  kEpisode    = 1u << 4,  ///< arrive_and_wait() / team_size()
  kEventCount = 1u << 5,  ///< advance() / await() / read()
  kCohort     = 1u << 6,  ///< topology/cohort-structured: budget() /
                          ///< cohort_count(), budget-parameterized factory
  kCombining  = 1u << 7,  ///< member of the delegation/combining layer:
                          ///< a run(closure) executor, or a container
                          ///< face below

  // Wait modes: which qsv::wait_policy values make(capacity, policy)
  // honors. All four or none — runtime-configurable primitives accept
  // the whole enum; hardwired spinners (tas, ticket, std adapters), and
  // cohort compositions with a hardwired tier, ignore the policy
  // argument and advertise no mode.
  kWaitSpin     = 1u << 8,
  kWaitYield    = 1u << 9,
  kWaitPark     = 1u << 10,
  kWaitAdaptive = 1u << 11,

  // Container faces (the first concrete structures over the combining
  // layer): what the type stores, not how it waits.
  kQueue       = 1u << 12,  ///< try_push() / try_pop()
  kMap         = 1u << 13,  ///< insert_or_assign() / find() / erase()
  kAccumulator = 1u << 14,  ///< add() / read() -> int64

  kSimulable   = 1u << 15,  ///< src/sim/protocols.cpp carries a
                            ///< line-for-line port under the same
                            ///< catalogue name, so the scale oracle
                            ///< (sim/replay.hpp) can replay the entry
                            ///< on synthetic topologies. A property of
                            ///< the simulator, not the type: tagged in
                            ///< builtin.cpp from the sim name lists,
                            ///< not derived by caps_of().

  kCheckable   = 1u << 16,  ///< every wait in the primitive reaches the
                            ///< chk_hook seam (spin polls through
                            ///< cpu_relax, terminal waits through
                            ///< platform::RuntimeWait), so qsv::chk's
                            ///< serializing scheduler can explore its
                            ///< schedules deterministically. Excludes
                            ///< the std:: adapters, whose kernel waits
                            ///< bypass the seam.
                            ///< Like kSimulable, a property of another
                            ///< subsystem: tagged in builtin.cpp.

  kObservable  = 1u << 17,  ///< registers a per-instance obs::LockRec in
                            ///< the telemetry registry and exposes it via
                            ///< telemetry(); derived by caps_of() from
                            ///< the HasTelemetry concept, so the bit can
                            ///< never drift from the code.
};

/// All container-face bits: any of them makes the entry a container.
inline constexpr std::uint32_t kContainerMask = kQueue | kMap | kAccumulator;

/// All four wait-mode bits (the runtime-configurable signature).
inline constexpr std::uint32_t kWaitModeMask =
    kWaitSpin | kWaitYield | kWaitPark | kWaitAdaptive;

/// The wait-mode bit for one policy value.
constexpr Capability wait_mode_bit(qsv::wait_policy p) {
  switch (p) {
    case qsv::wait_policy::spin: return kWaitSpin;
    case qsv::wait_policy::spin_yield: return kWaitYield;
    case qsv::wait_policy::park: return kWaitPark;
    case qsv::wait_policy::adaptive: return kWaitAdaptive;
  }
  return kWaitSpin;
}

/// Coarse family grouping, derived from the capability set: episode
/// primitives are barriers, shared-capable locks are reader-writer
/// locks, eventcounts are condition synchronization, everything else
/// is a plain lock. Benches and tests use the family views
/// (catalog.hpp) exactly like the three old per-family registries.
enum class Family : std::uint8_t {
  kLock,
  kRwLock,
  kBarrier,
  kEventCount,
  kContainer,
};

inline const char* family_name(Family f) {
  switch (f) {
    case Family::kLock: return "lock";
    case Family::kRwLock: return "rwlock";
    case Family::kBarrier: return "barrier";
    case Family::kEventCount: return "eventcount";
    case Family::kContainer: return "container";
  }
  return "?";
}

constexpr Family family_of(std::uint32_t caps) {
  if (caps & kContainerMask) return Family::kContainer;
  if (caps & kEventCount) return Family::kEventCount;
  if (caps & kEpisode) return Family::kBarrier;
  if (caps & kShared) return Family::kRwLock;
  return Family::kLock;
}

// ------------------------------------------------- face detection

template <typename T>
concept HasExclusive = requires(T t) {
  { t.lock() } -> std::same_as<void>;
  { t.unlock() } -> std::same_as<void>;
};

template <typename T>
concept HasTry = requires(T t) {
  { t.try_lock() } -> std::convertible_to<bool>;
};

template <typename T>
concept HasShared = requires(T t) {
  { t.lock_shared() } -> std::same_as<void>;
  { t.unlock_shared() } -> std::same_as<void>;
};

template <typename T>
concept HasTryShared = requires(T t) {
  { t.try_lock_shared() } -> std::convertible_to<bool>;
};

template <typename T>
concept HasTimed = requires(T t) {
  { t.try_lock_for(std::chrono::nanoseconds(1)) } -> std::convertible_to<bool>;
};

template <typename T>
concept HasEpisode = requires(T t, std::size_t rank) {
  { t.arrive_and_wait(rank) } -> std::same_as<void>;
  { t.team_size() } -> std::convertible_to<std::size_t>;
};

template <typename T>
concept HasEventCount = requires(T t, std::uint32_t target) {
  { t.advance() } -> std::convertible_to<std::uint32_t>;
  { t.await(target) } -> std::convertible_to<std::uint32_t>;
  { t.read() } -> std::convertible_to<std::uint32_t>;
};

/// Cohort-structured locks (the CohortLock compositions): they expose
/// the local-handoff budget and the cohort table size, and their
/// catalogue entries carry the budget-parameterized factory.
template <typename T>
concept HasCohortStructure = requires(const T t) {
  { t.budget() } -> std::convertible_to<std::size_t>;
  { t.cohort_count() } -> std::convertible_to<std::size_t>;
};

/// Delegation executors (FcExecutor, PlainExecutor): closures run
/// under the type's mutual exclusion, possibly on another thread.
template <typename T>
concept HasDelegation = requires(T t) { t.run([] {}); };

/// Bounded queue face, at the erased element type (the registered
/// container instantiations store std::uint64_t).
template <typename T>
concept HasQueueFace = requires(T t, std::uint64_t v, std::uint64_t& out) {
  { t.try_push(v) } -> std::convertible_to<bool>;
  { t.try_pop(out) } -> std::convertible_to<bool>;
};

/// Map face at erased uint64 key/value.
template <typename T>
concept HasMapFace = requires(T t, std::uint64_t k, std::uint64_t& out) {
  { t.insert_or_assign(k, k) } -> std::convertible_to<bool>;
  { t.find(k, out) } -> std::convertible_to<bool>;
  { t.erase(k) } -> std::convertible_to<bool>;
};

/// Accumulator face: relaxed or exact counting structures.
template <typename T>
concept HasAccumulatorFace = requires(T t, std::int64_t d) {
  { t.add(d) } -> std::same_as<void>;
  { t.read() } -> std::convertible_to<std::int64_t>;
};

/// Observable primitives embed an obs::LockRec and expose it as their
/// per-instance record (null when telemetry is disabled or compiled
/// out) — the face the introspection endpoint and fig10 consume.
template <typename T>
concept HasTelemetry = requires(const T t) {
  { t.telemetry() } -> std::convertible_to<const qsv::obs::LockRec*>;
};

/// Construction-time wait configurability: the type takes a
/// qsv::wait_policy (alone, or after its capacity argument), so the
/// factory can honor make(capacity, policy).
template <typename T>
concept WaitConfigurable =
    std::is_constructible_v<T, qsv::wait_policy> ||
    std::is_constructible_v<T, std::size_t, qsv::wait_policy>;

/// A composition of two component locks (the cohort combinator) that
/// names its tiers.
template <typename T>
concept HasComponentLocks = requires {
  typename T::global_lock_type;
  typename T::local_lock_type;
};

/// True when the type's waiters follow the policy it is built with. A
/// composition takes a policy in every constructor and forwards it to
/// its tiers, so it honors one exactly when both tiers take it: a
/// hardwired tier (the ticket lock) keeps its waiters spinning whatever
/// the policy says. (WaitConfigurable cannot see a composition whose
/// cohort map has no default, such as the block map of hier-qsv.)
template <typename T>
constexpr bool honors_wait_policy() {
  if constexpr (HasComponentLocks<T>) {
    return honors_wait_policy<typename T::global_lock_type>() &&
           honors_wait_policy<typename T::local_lock_type>();
  } else {
    return WaitConfigurable<T>;
  }
}

/// The derived capability set of a concrete primitive type.
template <typename T>
constexpr std::uint32_t caps_of() {
  std::uint32_t caps = 0;
  if constexpr (HasExclusive<T>) caps |= kExclusive;
  if constexpr (HasTry<T>) caps |= kTry;
  if constexpr (HasShared<T>) caps |= kShared;
  if constexpr (HasTimed<T>) caps |= kTimed;
  if constexpr (HasEpisode<T>) caps |= kEpisode;
  if constexpr (HasEventCount<T>) caps |= kEventCount;
  if constexpr (HasCohortStructure<T>) caps |= kCohort;
  if constexpr (HasQueueFace<T>) caps |= kQueue;
  if constexpr (HasMapFace<T>) caps |= kMap;
  if constexpr (HasAccumulatorFace<T>) caps |= kAccumulator;
  if constexpr (HasDelegation<T> || HasQueueFace<T> || HasMapFace<T> ||
                HasAccumulatorFace<T>) {
    caps |= kCombining;
  }
  if constexpr (honors_wait_policy<T>()) caps |= kWaitModeMask;
  if constexpr (HasTelemetry<T>) caps |= kObservable;
  return caps;
}

}  // namespace qsv::catalog
