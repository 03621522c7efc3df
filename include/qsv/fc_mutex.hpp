// qsv/fc_mutex.hpp — delegation (flat combining), the facade way.
//
// qsv::fc_mutex is a qsv::mutex that can also be handed the critical
// section itself: `run(closure)` runs the closure inline when the lock
// is free, and otherwise publishes it on a per-thread record so that
// whoever holds the lock applies the whole backlog in one cache-warm
// batch before releasing. Use it wherever a mutex protects one small
// hot structure and the contended cost is line bouncing, not the work:
//
//   qsv::fc_mutex mu;
//   mu.run([&] { ++shared_counter; });      // delegated critical section
//   std::lock_guard<qsv::fc_mutex> g(mu);   // ...or use it as a lock
//
// Raw lock()/unlock() sections serialize with delegated ones (same
// underlying qsv::mutex), and an unlock serves any pending backlog.
// Waiters go through the instance's qsv::wait_policy exactly like
// qsv::mutex waiters (spin / spin_yield / park / adaptive).
//
// Cost: a run() that finds the lock free is one try_lock, the closure
// and the release. A run() that loses also tries the lock a second
// time and round-trips its record with the holder. When every call
// contends and closures are a few nanoseconds, that makes delegation
// slower than publishing every call first would be: 8% at 2 threads
// and 12% at 4 in docs/BENCHMARKS.md tab3 (fc-counter, 4-core VM).
// qsv::fc_counter, qsv::sharded_map and qsv::mpmc_queue run on the
// same executor and share this cost model.
#pragma once

#include <mutex>

#include "combining/fc_executor.hpp"
#include "core/qsv_mutex.hpp"
#include "qsv/concepts.hpp"
#include "qsv/thread_safety.hpp"
#include "qsv/wait.hpp"

namespace qsv {

/// The flat-combining executor over the QSV mutex: a std-conforming
/// lock that batches delegated critical sections. The lock face is an
/// annotated Clang capability; run() needs no annotation — the closure
/// executes under the lock wherever it is applied, and the analysis
/// never sees a hold escape the call.
class QSV_CAPABILITY("mutex") fc_mutex
    : public combining::FcExecutor<core::QsvMutex> {
  using Base = combining::FcExecutor<core::QsvMutex>;

 public:
  using Base::Base;
  void lock() QSV_ACQUIRE() { Base::lock(); }
  bool try_lock() QSV_TRY_ACQUIRE(true) { return Base::try_lock(); }
  void unlock() QSV_RELEASE() { Base::unlock(); }
};

/// The handoff control with the same run() surface and no combining —
/// the baseline the fc containers are benched against.
using plain_executor = combining::PlainExecutor<core::QsvMutex>;

static_assert(api::lockable<fc_mutex>);
static_assert(api::lockable<plain_executor>);
static_assert(std::is_constructible_v<std::lock_guard<fc_mutex>, fc_mutex&>);
static_assert(
    std::is_constructible_v<std::unique_lock<fc_mutex>, fc_mutex&>);

}  // namespace qsv
