// qsv/mutex.hpp — exclusive entry, the facade way.
//
// Stable public names over the core QSV exclusive primitives. Include
// this (or the <qsv/qsv.hpp> umbrella) and use qsv::mutex wherever a
// std::mutex would go: std::lock_guard, std::unique_lock,
// std::scoped_lock (multi-lock deadlock avoidance included) and
// std::condition_variable_any all work — the static_asserts below are
// the contract.
//
// qsv::mutex is ONE runtime-polymorphic type: how its waiters wait is
// a qsv::wait_policy chosen at construction (defaulting to the
// process-wide policy, see <qsv/wait.hpp>), not a template parameter.
// The historical per-policy names remain as thin pinned-policy types
// that ARE a qsv::mutex (public base), so a qsv::mutex& can refer to
// any of them.
#pragma once

#include <chrono>
#include <mutex>

#include "core/condvar.hpp"
#include "core/qsv_mutex.hpp"
#include "core/qsv_timeout.hpp"
#include "qsv/concepts.hpp"
#include "qsv/thread_safety.hpp"
#include "qsv/wait.hpp"

namespace qsv {

/// The QSV exclusive lock: one word of state, FIFO handoff, waiters
/// spin/yield/park per the instance's wait_policy.
///
/// A Clang capability (qsv/thread_safety.hpp): compile analyzed code
/// with -Wthread-safety and unbalanced lock/unlock on a qsv::mutex is
/// a compile error. The annotated forwarders cost nothing — they
/// inline to the base calls on every compiler.
class QSV_CAPABILITY("mutex") mutex : public core::QsvMutex {
  using Base = core::QsvMutex;

 public:
  using Base::Base;
  void lock() QSV_ACQUIRE() { Base::lock(); }
  bool try_lock() QSV_TRY_ACQUIRE(true) { return Base::try_lock(); }
  void unlock() QSV_RELEASE() { Base::unlock(); }
};

/// A qsv::mutex pinned to wait_policy::spin_yield at construction:
/// waiters donate their quantum after a short spin.
struct yielding_mutex : mutex {
  yielding_mutex() : mutex(wait_policy::spin_yield) {}
};

/// A qsv::mutex pinned to wait_policy::park at construction: waiters
/// park in the kernel (futex-era QSV).
struct parking_mutex : mutex {
  parking_mutex() : mutex(wait_policy::park) {}
};

/// A qsv::mutex pinned to wait_policy::adaptive at construction: the
/// spin budget calibrates itself to the observed wake latency.
struct adaptive_mutex : mutex {
  adaptive_mutex() : mutex(wait_policy::adaptive) {}
};

/// Exclusive entry with bounded impatience: try_lock_for/try_lock_until
/// withdraw from the queue when the deadline passes. Annotated like
/// qsv::mutex; the timed try forms key the analysis on success.
class QSV_CAPABILITY("mutex") timed_mutex : public core::QsvTimeoutMutex {
  using Base = core::QsvTimeoutMutex;

 public:
  using Base::Base;
  void lock() QSV_ACQUIRE() { Base::lock(); }
  bool try_lock() QSV_TRY_ACQUIRE(true) { return Base::try_lock(); }
  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& timeout)
      QSV_TRY_ACQUIRE(true) {
    return Base::try_lock_for(timeout);
  }
  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& abs)
      QSV_TRY_ACQUIRE(true) {
    return Base::try_lock_until(abs);
  }
  void unlock() QSV_RELEASE() { Base::unlock(); }
};

/// Epoch-based condition variable for QSV mutexes. For the full std
/// protocol (wait with any lockable), std::condition_variable_any over
/// a qsv::mutex also works.
using condition_variable = core::QsvCondVar;

static_assert(api::lockable<mutex>);
static_assert(api::lockable<yielding_mutex>);
static_assert(api::lockable<parking_mutex>);
static_assert(api::lockable<adaptive_mutex>);
static_assert(api::timed_lockable<timed_mutex>);

// The pinned names are the one runtime type underneath.
static_assert(std::is_base_of_v<mutex, yielding_mutex>);
static_assert(std::is_base_of_v<mutex, parking_mutex>);
static_assert(std::is_base_of_v<mutex, adaptive_mutex>);

// Drop-in under the std RAII wrappers.
static_assert(std::is_constructible_v<std::lock_guard<mutex>, mutex&>);
static_assert(std::is_constructible_v<std::unique_lock<mutex>, mutex&>);
static_assert(
    std::is_constructible_v<std::scoped_lock<mutex, mutex>, mutex&, mutex&>);
static_assert(std::is_constructible_v<std::unique_lock<timed_mutex>,
                                      timed_mutex&, std::chrono::milliseconds>);

// Telemetry and the wait policy live inside the lock's one line without
// growing it.
static_assert(sizeof(mutex) == platform::kCacheLine);
static_assert(sizeof(timed_mutex) == platform::kCacheLine);

}  // namespace qsv
