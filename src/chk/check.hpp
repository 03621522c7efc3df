// check.hpp — qsv::chk's property checkers and exploration drivers.
//
// A *scenario* builds one execution's worth of state — instrumented
// wrappers around fresh primitive instances — and returns the logical
// thread bodies. check() runs the scenario under the serializing
// scheduler over and over, steering the schedule per the chosen
// exploration mode:
//
//   kDfs           exhaustive depth-first enumeration of every schedule
//                  at the scenario's bounds (prefix-replay
//                  backtracking), up to max_executions
//   kPreemptBound  the same enumeration restricted to schedules with at
//                  most k preemptions, iterating k = 0..preemption_bound
//                  (most real bugs need very few preemptions)
//   kRandom        seeded uniform sampling of schedules
//   kReplay        one execution forced through replay_schedule — the
//                  counterexample replayer
//
// Properties are enforced by the wrappers while executions run:
//   * mutual exclusion      (CheckedLock: at most one owner)
//   * reader-writer exclusion (CheckedSharedLock: no reader-writer or
//                            writer-writer overlap)
//   * semaphore bound       (CheckedSemaphore: holders <= permits)
//   * delegation exclusion and exactly-once
//                           (CheckedExecutor: one closure inside at a
//                            time; each run() returns after its own
//                            closure ran exactly once)
//   * deadlock / lost wakeup (scheduler stall + waits-for cycle)
//   * lock-order inversion  (trace/lock_order.hpp, enabled for every
//                            check and surfaced in the report)
//
// Every report is deterministic — names and logical thread ids only —
// so replaying a counterexample's schedule reproduces the identical
// report bytes. That round trip is the checker's own correctness test.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/any_primitive.hpp"
#include "chk/scheduler.hpp"
#include "combining/fc_executor.hpp"
#include "core/qsv_mutex.hpp"
#include "core/semaphore.hpp"

namespace qsv::chk {

class Ctx;

/// Mutual-exclusion-checked wrapper over an erased lock face.
class CheckedLock {
 public:
  CheckedLock(Ctx& ctx, std::unique_ptr<catalog::AnyPrimitive> impl,
              std::string name);
  void lock();
  void unlock();
  bool try_lock();
  const std::string& name() const { return name_; }

 private:
  Ctx& ctx_;
  std::unique_ptr<catalog::AnyPrimitive> impl_;
  std::string name_;
  std::size_t owner_;
};

/// Reader-writer-exclusion-checked wrapper over an erased shared face.
class CheckedSharedLock {
 public:
  CheckedSharedLock(Ctx& ctx, std::unique_ptr<catalog::AnyPrimitive> impl,
                    std::string name, std::size_t nthreads);
  void lock();
  void unlock();
  void lock_shared();
  void unlock_shared();
  const std::string& name() const { return name_; }

 private:
  Ctx& ctx_;
  std::unique_ptr<catalog::AnyPrimitive> impl_;
  std::string name_;
  std::size_t writer_;
  std::vector<bool> reader_;
  std::size_t reader_count_ = 0;
};

/// Permit-bound-checked wrapper over the QSV counting semaphore
/// (constructed with spin waiting so every wait goes through the
/// scheduler seam deterministically).
class CheckedSemaphore {
 public:
  CheckedSemaphore(Ctx& ctx, std::int64_t permits, std::string name);
  void acquire();
  void release();
  const std::string& name() const { return name_; }

 private:
  Ctx& ctx_;
  core::QsvSemaphore sem_;
  std::string name_;
  std::int64_t permits_;
  std::int64_t holders_ = 0;
};

/// Delegation-checked wrapper over FcExecutor<QsvMutex> (spin
/// waiting, so election losers wait through the scheduler seam). Each
/// run() delegates one closure that fails the check if another closure
/// is inside, yields while inside, and counts itself into its poster's
/// tally; the poster checks on return that its closure ran exactly
/// once. A poster that no tenure serves or wakes is a scheduler stall.
class CheckedExecutor {
 public:
  CheckedExecutor(Ctx& ctx, std::string name, std::size_t nthreads);
  void run();

 private:
  Ctx& ctx_;
  combining::FcExecutor<core::QsvMutex> exec_;
  std::string name_;
  std::size_t inside_;                ///< poster whose closure runs
  std::vector<std::uint64_t> tally_;  ///< closures run, per poster
};

/// Per-execution context: owns the wrappers (stable addresses for the
/// bodies' captures) and records the first property violation.
class Ctx {
 public:
  explicit Ctx(Scheduler& sched) : sched_(sched) {}
  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  Scheduler& sched() { return sched_; }
  std::size_t self() const { return Scheduler::current_index(); }
  std::size_t threads() const { return sched_.size(); }

  CheckedLock& add_lock(std::unique_ptr<catalog::AnyPrimitive> impl,
                        std::string name);
  CheckedSharedLock& add_rwlock(std::unique_ptr<catalog::AnyPrimitive> impl,
                                std::string name);
  CheckedSemaphore& add_semaphore(std::int64_t permits, std::string name);
  CheckedExecutor& add_executor(std::string name);

  /// Record a violation (first one wins; the execution keeps running to
  /// completion so the worker pool stays reusable).
  void fail(std::string_view property, std::string detail);
  bool failed() const { return failed_; }
  const std::string& property() const { return property_; }
  const std::string& detail() const { return detail_; }

 private:
  Scheduler& sched_;
  std::deque<CheckedLock> locks_;
  std::deque<CheckedSharedLock> rwlocks_;
  std::deque<CheckedSemaphore> sems_;
  std::deque<CheckedExecutor> execs_;
  bool failed_ = false;
  std::string property_;
  std::string detail_;
};

/// Builds one execution: allocate wrappers via ctx, return the logical
/// thread bodies (size = Options::threads). Called once per explored
/// schedule with a fresh Ctx.
using Scenario =
    std::function<std::vector<std::function<void()>>(Ctx& ctx)>;

struct Options {
  enum class Mode { kDfs, kPreemptBound, kRandom, kReplay };
  Mode mode = Mode::kDfs;
  std::size_t threads = 2;
  /// Exploration budget: executions across the whole check (DFS stops
  /// with exhausted=false when it runs out).
  std::size_t max_executions = 50000;
  /// Scheduling-decision cap per execution (runaway backstop).
  std::size_t max_steps = 100000;
  /// kPreemptBound: explore k = 0..preemption_bound preemptions.
  unsigned preemption_bound = 2;
  /// kRandom: sample count and seed.
  std::size_t samples = 500;
  std::uint64_t seed = 1;
  /// kReplay: the forced schedule.
  std::vector<std::size_t> replay_schedule;
};

struct Report {
  bool ok = true;
  /// DFS/PB only: the full (bounded) schedule space was enumerated.
  bool exhausted = false;
  std::size_t executions = 0;
  std::string property;  ///< violated property ("" when ok)
  std::string detail;    ///< deterministic description
  std::vector<std::size_t> schedule;  ///< counterexample schedule
  std::size_t lock_order_warnings = 0;
  std::string lock_order_last;

  /// Canonical counterexample text; replaying `schedule` must
  /// reproduce it byte-identically. Empty when ok.
  std::string counterexample() const;

  static std::string schedule_string(const std::vector<std::size_t>& s);
  static std::vector<std::size_t> parse_schedule(std::string_view s);
};

/// Explore `scenario` per `opts`. The lock-order detector is enabled
/// (and reset) for the duration of the check and fed by the checked
/// wrappers only: the production held-chain feed stays off meanwhile.
Report check(const Scenario& scenario, const Options& opts);

}  // namespace qsv::chk
