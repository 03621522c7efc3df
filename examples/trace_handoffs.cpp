// trace_handoffs — who gets the lock after whom, read from the lock's
// own telemetry record.
//
//   build/trace_handoffs
//
// One thread per available CPU (at least two) increments a shared
// counter for a 200 ms window under the QSV mutex (FIFO handoff), then
// under the TTAS lock (barging). Every thread stays in the loop for the
// whole window. Shares per thread and self-handoffs (the releaser
// re-winning its own lock) are counted inside the critical section;
// the contended count, handoffs and wait quantiles come from the lock's
// telemetry() record, the one the introspection endpoint serves.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <vector>

#include "benchreg/stats.hpp"
#include "core/qsv_mutex.hpp"
#include "harness/team.hpp"
#include "locks/ttas.hpp"
#include "platform/affinity.hpp"
#include "platform/stats.hpp"

namespace {

using ull = unsigned long long;

/// One window under `Lock`; false when the shares do not add up to the
/// acquisitions counted under the lock.
template <typename Lock>
bool run(const char* label, std::size_t threads) {
  Lock lock;
  std::vector<std::uint64_t> shares(threads, 0);
  std::uint64_t acquisitions = 0, self_handoffs = 0;  // guarded by lock
  std::size_t last_holder = threads;                  // guarded by lock
  qsv::benchreg::DeadlineStop clock(0.2);
  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    std::uint64_t mine = 0;
    while (!clock.stop()) {
      lock.lock();
      ++acquisitions;
      if (last_holder == rank) ++self_handoffs;
      last_holder = rank;
      lock.unlock();
      clock.poll(rank, ++mine);
    }
    shares[rank] = mine;
  });

  std::printf("%s\n  shares per thread:", label);
  for (const std::uint64_t s : shares) std::printf(" %llu", ull{s});
  std::printf("\n  Jain index: %.3f (1 = even shares)\n",
              qsv::platform::jain_index(shares));
  const auto total =
      static_cast<double>(std::max<std::uint64_t>(1, acquisitions));
  std::printf("  self-handoffs: %llu of %llu acquisitions (%.1f%%)\n",
              ull{self_handoffs}, ull{acquisitions},
              100.0 * static_cast<double>(self_handoffs) / total);
  if (const qsv::obs::LockRec* rec = lock.telemetry()) {
    std::printf("  telemetry (%s): %llu contended, %llu handoffs\n"
                "  contended wait: p50 %llu ns, p99 %llu ns, max %llu ns\n\n",
                rec->kind(), ull{rec->contended()}, ull{rec->handoffs()},
                ull{rec->wait_quantile_ns(0.5)},
                ull{rec->wait_quantile_ns(0.99)}, ull{rec->max_wait_ns()});
  } else {
    std::printf("  telemetry: off (built with QSV_OBS=OFF)\n\n");
  }
  return std::accumulate(shares.begin(), shares.end(), std::uint64_t{0}) ==
         acquisitions;
}

}  // namespace

int main() {
  const std::size_t threads =
      std::max<std::size_t>(2, qsv::platform::available_cpus());
  std::printf("trace_handoffs — FIFO vs barging, %zu threads, 200 ms each\n\n",
              threads);
  const bool qsv_ok =
      run<qsv::core::QsvMutex>("qsv (FIFO handoff)", threads);
  const bool ttas_ok =
      run<qsv::locks::TtasNoBackoffLock>("ttas (barging)", threads);
  if (qsv_ok && ttas_ok) return 0;
  std::printf("shares do not sum to the acquisitions counted in the lock\n");
  return 1;
}
