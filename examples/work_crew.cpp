// work_crew — a task farm on the cohort (hierarchical) QSV lock.
//
//   build/work_crew
//
// One worker per CPU (at least four), organized in two cohorts (think:
// two NUMA nodes), pull variable-sized work items from one shared deque.
// The deque's lock is the contended resource; the cohort lock (QSV
// global and local tiers, cohorts of consecutive thread indices)
// prefers handing it to a cohort-mate, which on clustered hardware keeps
// the lock line and the deque's data resident in one node's cache.
//
// The run reports the protocol-event mix (intra-cohort passes vs global
// round trips) for three fairness budgets, showing the dial between
// locality and strict FIFO — and that total work completed is identical
// (nothing is lost, only reordered).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "core/qsv_mutex.hpp"
#include "harness/team.hpp"
#include "hier/cohort_lock.hpp"
#include "hier/cohort_map.hpp"
#include "obs/hook.hpp"
#include "platform/affinity.hpp"
#include "platform/rng.hpp"
#include "platform/timing.hpp"
#include "qsv/wait.hpp"

namespace {

struct WorkItem {
  std::uint32_t id;
  std::uint32_t cost;  // busy-loop iterations
};

constexpr std::uint32_t kItems = 40000;

/// One farm run under the given budget; returns {seconds, passes, acqs}.
struct FarmResult {
  double seconds;
  std::uint64_t local_passes;
  std::uint64_t global_acquires;
  std::uint64_t completed;
};

FarmResult run_farm(std::size_t workers, std::size_t cohort,
                    std::size_t budget) {
  qsv::hier::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex,
                        qsv::hier::BlockCohortMap>
      lock(budget, qsv::get_default_wait_policy(),
           qsv::hier::BlockCohortMap(cohort));
  const qsv::obs::LockRec* rec = lock.telemetry();
  std::deque<WorkItem> queue;  // guarded by `lock`
  qsv::platform::SplitMix64 rng(42);
  for (std::uint32_t i = 0; i < kItems; ++i) {
    queue.push_back(WorkItem{i, static_cast<std::uint32_t>(
                                    64 + (rng.next() & 255))});
  }

  std::vector<std::uint64_t> done(workers, 0);
  const auto t0 = qsv::platform::now_ns();
  qsv::harness::ThreadTeam::run(workers, [&](std::size_t rank) {
    std::uint64_t n = 0;
    for (;;) {
      lock.lock();
      if (queue.empty()) {
        lock.unlock();
        break;
      }
      const WorkItem item = queue.front();
      queue.pop_front();
      lock.unlock();
      // Simulated work outside the lock.
      volatile std::uint32_t sink = 0;
      for (std::uint32_t i = 0; i < item.cost; ++i) sink = sink + i;
      ++n;
    }
    done[rank] = n;
  });
  const double secs =
      static_cast<double>(qsv::platform::now_ns() - t0) * 1e-9;

  std::uint64_t total = 0;
  for (auto d : done) total += d;
  return FarmResult{secs, rec != nullptr ? rec->local_passes() : 0,
                    rec != nullptr ? rec->global_acquires() : 0, total};
}

}  // namespace

int main() {
  // One worker per CPU, at least four so each of the two cohorts has a
  // mate to pass the lock to.
  const std::size_t cpus = qsv::platform::available_cpus();
  const std::size_t workers = std::max<std::size_t>(4, cpus);
  const std::size_t cohort = (workers + 1) / 2;
  // Pure spinning needs a CPU per thread: a FIFO handoff to a waiter
  // that is not running stalls every waiter queued behind it. A crew
  // that outnumbers the CPUs yields once its spin budget runs out.
  if (workers > cpus &&
      qsv::get_default_wait_policy() == qsv::wait_policy::spin) {
    qsv::set_default_wait_policy(qsv::wait_policy::spin_yield);
  }
  std::printf("work_crew — %zu workers in cohorts of %zu, %u items\n\n",
              workers, cohort, kItems);
  std::printf("%8s %10s %14s %14s %10s\n", "budget", "seconds",
              "local passes", "global acqs", "items");
  for (const std::size_t budget : {0ul, 8ul, 64ul}) {
    const FarmResult r = run_farm(workers, cohort, budget);
    std::printf("%8zu %10.3f %14llu %14llu %10llu%s\n", budget, r.seconds,
                static_cast<unsigned long long>(r.local_passes),
                static_cast<unsigned long long>(r.global_acquires),
                static_cast<unsigned long long>(r.completed),
                r.completed == kItems ? "" : "  << LOST WORK");
    if (r.completed != kItems) return 1;
  }
  std::printf("\nHigher budgets convert global round trips into "
              "intra-cohort passes;\nevery run completes all %u items — "
              "the dial trades fairness for locality,\nnever "
              "correctness.\n", kItems);
  return 0;
}
