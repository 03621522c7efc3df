// kernels.hpp — the shared measurement loops of the evaluation suite.
//
// Before benchreg, the reader-writer mix loop existed four times
// (smoke, fig8, abl2, abl6) and the plain acquire/release loop three
// times (abl1, abl3, abl4) with only cosmetic drift between copies;
// fig1/6/7/10 later ran a second lock-loop runner of their own.
// Each loop lives here once, templated over the lock type so both the
// type-erased registry handles and the concrete ablation types compile
// to the same measurement.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "benchreg/stats.hpp"
#include "harness/team.hpp"
#include "platform/arch.hpp"
#include "workload/critical_section.hpp"
#include "workload/rw_mix.hpp"

namespace qsv::benchreg {

/// Outcome of a reader/writer mix run.
struct RwMixResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t dt_ns = 0;
  bool torn = false;  ///< any reader observed an inconsistent snapshot

  double total_mops() const { return mops(reads + writes, dt_ns); }
  double read_mops() const { return mops(reads, dt_ns); }
  double write_mops() const { return mops(writes, dt_ns); }
};

/// Read-mostly mix over VersionedCells: readers take the shared mode
/// and verify snapshot consistency, writers take the exclusive mode.
/// `seed_stride`/`seed_bias` keep the per-thread RNG streams of the
/// historical binaries reproducible.
template <typename Lock>
RwMixResult run_rw_mix(Lock& lock, std::size_t threads, double read_ratio,
                       double seconds, std::uint64_t seed_stride = 7919,
                       std::uint64_t seed_bias = 1) {
  std::atomic<std::uint64_t> reads{0}, writes{0}, torn{0};
  qsv::workload::VersionedCells cells;
  DeadlineStop clock(seconds);
  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    qsv::workload::RwMix mix(read_ratio, rank * seed_stride + seed_bias);
    std::uint64_t r = 0, w = 0, ops = 0;
    while (!clock.stop()) {
      if (mix.next_is_read()) {
        lock.lock_shared();
        if (!cells.read_consistent()) torn.fetch_add(1);
        lock.unlock_shared();
        ++r;
      } else {
        lock.lock();
        cells.write();
        lock.unlock();
        ++w;
      }
      clock.poll(rank, ++ops);
    }
    reads.fetch_add(r);
    writes.fetch_add(w);
  });
  RwMixResult out;
  out.dt_ns = clock.elapsed_ns();
  out.reads = reads.load();
  out.writes = writes.load();
  out.torn = torn.load() != 0;
  return out;
}

/// Outcome of a plain acquire/release loop.
struct LockLoopResult {
  std::uint64_t ops = 0;
  std::uint64_t dt_ns = 0;
  bool ok = true;  ///< mutual-exclusion integrity held
  std::vector<std::uint64_t> per_thread_ops;  ///< fairness raw data (F7)

  double throughput_mops() const { return mops(ops, dt_ns); }
};

/// Contention loop with the GuardedCounter integrity check. `cs_ns` is
/// busy time inside the lock and `think_ns` busy time between
/// acquisitions (both zero: empty sections). `external_watchdog` moves
/// timer duty off the team onto a helper thread — required when the
/// team is oversubscribed and no member can be trusted to make progress
/// (abl1/abl4); ThreadTeam leaves such a team unpinned.
template <typename Lock>
LockLoopResult run_lock_loop(Lock& lock, std::size_t threads, double seconds,
                             bool external_watchdog = false,
                             std::uint64_t cs_ns = 0,
                             std::uint64_t think_ns = 0) {
  qsv::workload::GuardedCounter integrity;
  LockLoopResult out;
  out.per_thread_ops.assign(threads, 0);
  DeadlineStop clock(seconds);
  std::thread watchdog;
  if (external_watchdog) {
    watchdog = std::thread([&] {
      qsv::platform::thread_sleep(
          std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9)));
      clock.request();
    });
  }
  qsv::harness::ThreadTeam::run(
      threads,
      [&](std::size_t rank) {
        std::uint64_t ops = 0;
        while (!clock.stop()) {
          lock.lock();
          integrity.bump();
          if (cs_ns != 0) qsv::workload::busy_wait_ns(cs_ns);
          lock.unlock();
          if (think_ns != 0) qsv::workload::busy_wait_ns(think_ns);
          ++ops;
          if (!external_watchdog) clock.poll(rank, ops);
        }
        out.per_thread_ops[rank] = ops;
      });
  out.dt_ns = clock.elapsed_ns();
  if (watchdog.joinable()) watchdog.join();
  for (const std::uint64_t ops : out.per_thread_ops) out.ops += ops;
  out.ok = integrity.consistent() && integrity.value() == out.ops;
  return out;
}

/// Hot-counter fetch&add loop (T3): returns achieved Mops.
template <typename Counter>
double run_counter_loop(Counter& counter, std::size_t threads,
                        double seconds) {
  std::atomic<std::uint64_t> total{0};
  DeadlineStop clock(seconds);
  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    std::uint64_t ops = 0;
    while (!clock.stop()) {
      counter.fetch_add(1);
      clock.poll(rank, ++ops, 0x3f);
    }
    total.fetch_add(ops);
  });
  return mops(total.load(), clock.elapsed_ns());
}

}  // namespace qsv::benchreg
