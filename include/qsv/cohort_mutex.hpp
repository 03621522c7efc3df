// qsv/cohort_mutex.hpp — topology-aware exclusive entry, the facade way.
//
// qsv::cohort_mutex is the cohort combinator (hier/cohort_lock.hpp)
// over the QSV exclusive lock at both tiers: one QSV lock per NUMA
// node, one global QSV lock, and up to `budget` consecutive
// intra-node handoffs per global tenure. Cohorts come from the
// machine's real topology, discovered from sysfs at first use
// (platform/topology.hpp); single-node hosts — including containers
// with no visible NUMA structure — collapse to one cohort and keep
// exactly the flat lock's semantics.
//
// Like every facade type it is ONE runtime-polymorphic type: the wait
// policy is a qsv::wait_policy chosen at construction (defaulting to
// the process-wide policy), and the budget is a per-instance dial:
//
//   qsv::cohort_mutex mu;                          // budget 16, default policy
//   qsv::cohort_mutex tuned(64);                   // deeper local streaks
//   qsv::cohort_mutex parked(16, qsv::wait_policy::park);
//
// It is a drop-in under the std RAII wrappers (lock_guard,
// unique_lock, scoped_lock) — the static_asserts below are the
// contract. For other tier compositions (MCS×MCS, QSV×ticket, …) use
// the catalogue's "cohort/…" entries or instantiate
// qsv::hier::CohortLock directly.
#pragma once

#include <mutex>

#include "core/qsv_mutex.hpp"
#include "hier/cohort_lock.hpp"
#include "qsv/concepts.hpp"
#include "qsv/thread_safety.hpp"
#include "qsv/wait.hpp"

namespace qsv {

/// The topology-aware cohort lock: QSV global tier × one QSV local
/// tier per discovered NUMA node, budgeted local handoff. A Clang
/// capability like every facade lock (qsv/thread_safety.hpp).
class QSV_CAPABILITY("mutex") cohort_mutex
    : public hier::CohortLock<core::QsvMutex, core::QsvMutex> {
  using Base = hier::CohortLock<core::QsvMutex, core::QsvMutex>;

 public:
  using Base::Base;
  void lock() QSV_ACQUIRE() { Base::lock(); }
  bool try_lock() QSV_TRY_ACQUIRE(true) { return Base::try_lock(); }
  void unlock() QSV_RELEASE() { Base::unlock(); }
};

static_assert(api::lockable<cohort_mutex>);

// Drop-in under the std RAII wrappers.
static_assert(std::is_constructible_v<std::lock_guard<cohort_mutex>,
                                      cohort_mutex&>);
static_assert(std::is_constructible_v<std::unique_lock<cohort_mutex>,
                                      cohort_mutex&>);
static_assert(std::is_constructible_v<std::scoped_lock<cohort_mutex,
                                                       cohort_mutex>,
                                      cohort_mutex&, cohort_mutex&>);

}  // namespace qsv
