// rw_cache — a read-mostly configuration cache under QSV shared mode.
//
//   build/rw_cache [threads] [seconds]
//
// Threads default to one per CPU. A key-value table serving a
// 99%-read workload, guarded by
// qsv::shared_mutex through the std RAII wrappers (std::shared_lock
// for readers, std::unique_lock for the refresher). Every read
// validates the table's internal checksum, so any admission bug is
// caught on the spot. The same workload is run over the centralized
// QSV ablation and the reader-preference baseline to show the
// writer-starvation anomaly in the refresh counter.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "harness/team.hpp"
#include "platform/affinity.hpp"
#include "platform/rng.hpp"
#include "platform/timing.hpp"
#include "qsv/qsv.hpp"
#include "rwlocks/central_rw.hpp"

namespace {

/// Table with a self-validating checksum; torn snapshots fail validate().
class ConfigTable {
 public:
  explicit ConfigTable(std::size_t entries) : values_(entries, 0) {}

  void refresh(std::uint64_t generation) {  // hold exclusive
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      values_[i] = generation * 31 + i;
      sum += values_[i];
    }
    checksum_ = sum;
  }

  bool validate() const {  // hold shared
    std::uint64_t sum = 0;
    for (auto v : values_) sum += v;
    return sum == checksum_;
  }

  std::uint64_t lookup(std::size_t key) const {  // hold shared
    return values_[key % values_.size()];
  }

 private:
  std::vector<std::uint64_t> values_;
  std::uint64_t checksum_ = 0;
};

struct Outcome {
  std::uint64_t reads = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t torn = 0;
};

template <typename Lock>
Outcome serve(std::size_t threads, double seconds) {
  Lock lock;
  ConfigTable table(256);
  {
    // Initial population under the writer lock.
    std::unique_lock guard(lock);
    table.refresh(1);
  }
  Outcome out;
  std::atomic<std::uint64_t> reads{0}, refreshes{0}, torn{0};
  std::atomic<bool> stop{false};
  const auto deadline =
      qsv::platform::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);

  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    qsv::platform::Xoshiro256 rng(rank + 5);
    std::uint64_t my_reads = 0, my_refreshes = 0, ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (rank == 0 && rng.next_bool(0.01)) {
        // The refresher: ~1% of rank-0 operations rewrite the table.
        std::unique_lock guard(lock);
        table.refresh(my_refreshes + 2);
        ++my_refreshes;
      } else {
        std::shared_lock guard(lock);
        if (!table.validate()) torn.fetch_add(1);
        (void)table.lookup(static_cast<std::size_t>(rng.next_below(1024)));
        ++my_reads;
      }
      // Every rank watches the clock: readers that starve the refresher
      // (the reader-preference baseline) must still stop on time.
      if ((++ops & 0x7f) == 0 && qsv::platform::now_ns() >= deadline) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
    reads.fetch_add(my_reads);
    refreshes.fetch_add(my_refreshes);
  });
  out.reads = reads.load();
  out.refreshes = refreshes.load();
  out.torn = torn.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cpus = qsv::platform::available_cpus();
  const std::size_t threads = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                       : cpus;
  const double seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 0.5;
  // Pure spinning needs a CPU per thread: a FIFO handoff to a waiter
  // that is not running stalls every waiter queued behind it. A crew
  // that outnumbers the CPUs yields once its spin budget runs out.
  if (threads > cpus &&
      qsv::get_default_wait_policy() == qsv::wait_policy::spin) {
    qsv::set_default_wait_policy(qsv::wait_policy::spin_yield);
  }

  const auto qsv_out = serve<qsv::shared_mutex>(threads, seconds);
  const auto central_out =
      serve<qsv::central_shared_mutex>(threads, seconds);
  const auto rp_out = serve<qsv::rwlocks::ReaderPrefRwLock>(threads, seconds);

  std::printf("rw_cache: %zu threads, %.1fs, 99%% reads\n", threads, seconds);
  std::printf("  %-22s reads=%-10llu refreshes=%-6llu torn=%llu\n",
              "qsv-rw (striped):",
              static_cast<unsigned long long>(qsv_out.reads),
              static_cast<unsigned long long>(qsv_out.refreshes),
              static_cast<unsigned long long>(qsv_out.torn));
  std::printf("  %-22s reads=%-10llu refreshes=%-6llu torn=%llu\n",
              "qsv-rw (central):",
              static_cast<unsigned long long>(central_out.reads),
              static_cast<unsigned long long>(central_out.refreshes),
              static_cast<unsigned long long>(central_out.torn));
  std::printf("  %-22s reads=%-10llu refreshes=%-6llu torn=%llu\n",
              "reader-pref baseline:",
              static_cast<unsigned long long>(rp_out.reads),
              static_cast<unsigned long long>(rp_out.refreshes),
              static_cast<unsigned long long>(rp_out.torn));
  if (qsv_out.torn != 0 || central_out.torn != 0 || rp_out.torn != 0) {
    std::printf("  ADMISSION BUG: torn snapshot observed\n");
    return 1;
  }
  std::printf("  all snapshots consistent\n");
  return 0;
}
