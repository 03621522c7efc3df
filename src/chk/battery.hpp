// battery.hpp — the catalogue-wide qsv::chk battery.
//
// Drives every kCheckable catalogue row through the checker: exhaustive
// DFS at small bounds (2 threads, 2 critical sections each) plus
// seeded-random sampling at slightly larger bounds (3 threads, 2
// iterations), with a reader-writer scenario for the shared-capable
// rows, a permit-bound scenario for the QSV semaphore and a delegation
// scenario driving FcExecutor::run() (neither has a catalogue row of
// its own). A row passes when no property violation is found; any
// violation carries a replayable schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "chk/check.hpp"

namespace qsv::chk {

/// The catalogue rows the checker can drive (kCheckable), registration
/// order.
std::vector<const catalog::Entry*> checkable_rows();

struct BatteryOptions {
  /// Exhaustive pass: threads and per-thread critical sections. Two
  /// iterations exhaust at ~2.8k executions per lock row (sub-second
  /// native) and cover the release/reacquire handoff single-iteration
  /// bounds cannot reach.
  std::size_t dfs_threads = 2;
  std::size_t dfs_iters = 2;
  /// DFS execution budget per row; exhaustion within it is reported
  /// but not required to pass.
  std::size_t dfs_max_executions = 20000;
  /// Random pass: bounds, sample count, seed.
  std::size_t random_threads = 3;
  std::size_t random_iters = 2;
  std::size_t random_samples = 200;
  std::uint64_t seed = 1;
  /// Per-row progress lines (qsvchk); null for silent (tests).
  std::function<void(const std::string&)> log;

  /// Shrink the exploration budgets ~10x — for sanitizer builds, where
  /// every execution costs an order of magnitude more. Dropping to one
  /// critical section per thread keeps the DFS pass exhaustive (58
  /// executions per lock row) inside the smaller budget.
  void quick() {
    dfs_iters = 1;
    dfs_max_executions /= 10;
    random_samples /= 10;
  }
};

/// One (row, scenario, mode) check and its outcome.
struct BatteryCheck {
  std::string row;       ///< catalogue name, "qsv-semaphore" or
                         ///< "fc-executor"
  std::string scenario;  ///< "lock", "rw", "semaphore" or "delegation"
  std::string mode;      ///< "dfs" or "random"
  Report report;
};

struct BatteryResult {
  bool ok = true;
  std::size_t rows = 0;    ///< catalogue rows driven
  std::size_t checks = 0;  ///< (row, scenario, mode) checks run
  /// Checks whose report is not ok (empty when ok).
  std::vector<BatteryCheck> failures;
};

/// A lock scenario over one catalogue row: `threads` logical threads
/// each take and release the row's lock `iters` times.
Scenario lock_scenario(const catalog::Entry& entry, std::size_t threads,
                       std::size_t iters);

/// A reader-writer scenario: thread 0 writes, the rest read, `iters`
/// critical sections each.
Scenario rw_scenario(const catalog::Entry& entry, std::size_t threads,
                     std::size_t iters);

/// A semaphore scenario: `threads` logical threads each take and drop
/// one of `permits` permits `iters` times.
Scenario semaphore_scenario(std::int64_t permits, std::size_t threads,
                            std::size_t iters);

/// A delegation scenario: `threads` logical threads each delegate
/// `iters` checked closures through one FcExecutor<QsvMutex>.
Scenario delegation_scenario(std::size_t threads, std::size_t iters);

/// Run the full battery. Every kCheckable lock row gets the lock
/// scenario, every kCheckable shared row additionally the rw scenario,
/// the QSV semaphore its permit-bound scenario and the flat-combining
/// executor its delegation scenario; each under DFS and seeded-random
/// exploration.
BatteryResult run_battery(const BatteryOptions& opts);

}  // namespace qsv::chk
