// bank_ledger — fine-grained locking with QSV mutexes.
//
//   build/bank_ledger [accounts] [threads] [transfers]
//
// A ledger of accounts, each guarded by its own one-word QSV timeout
// mutex (the space argument for the mechanism: a lock per record is
// affordable). Worker threads (default: one per CPU, less one for the
// auditor) execute random transfers with ordered two-lock acquisition;
// an auditor thread concurrently snapshots the books with the timeout
// mode's zero-deadline try_lock on the same locks, so it skips any
// record a worker holds. At exit the total must be exactly conserved.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "core/syncvar.hpp"
#include "harness/team.hpp"
#include "platform/affinity.hpp"
#include "platform/rng.hpp"
#include "qsv/wait.hpp"

namespace {

struct Account {
  qsv::core::QsvTimeoutMutex lock;
  std::int64_t balance = 1000;  // guarded by lock
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t accounts = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                        : 64;
  const std::size_t cpus = qsv::platform::available_cpus();
  const std::size_t threads = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                       : std::max<std::size_t>(1, cpus - 1);
  // Pure spinning needs a CPU per thread: a FIFO handoff to a waiter
  // that is not running stalls every waiter queued behind it. A crew
  // that outnumbers the CPUs yields once its spin budget runs out.
  if (threads + 1 > cpus &&
      qsv::get_default_wait_policy() == qsv::wait_policy::spin) {
    qsv::set_default_wait_policy(qsv::wait_policy::spin_yield);
  }
  const std::size_t transfers =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 200000;

  std::vector<Account> ledger(accounts);
  const std::int64_t expected_total =
      static_cast<std::int64_t>(accounts) * 1000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> audits{0}, audit_skips{0};

  // Auditor: best-effort sweep with bounded impatience per record. It
  // contends for the lock the workers hold with a zero deadline: a
  // record a worker holds (or has queued for) is skipped, not waited
  // on — the attempt withdraws from the queue instead.
  std::thread auditor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::int64_t seen = 0;
      bool complete = true;
      for (std::size_t i = 0; i < accounts; ++i) {
        if (ledger[i].lock.try_lock()) {
          seen += ledger[i].balance;
          ledger[i].lock.unlock();
        } else {
          complete = false;
          audit_skips.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (complete) audits.fetch_add(1, std::memory_order_relaxed);
      (void)seen;  // a mid-flight sum is not conserved; only quiescent is
    }
  });

  qsv::harness::ThreadTeam::run(threads, [&](std::size_t rank) {
    qsv::platform::Xoshiro256 rng(rank * 2654435761u + 1);
    for (std::size_t t = 0; t < transfers; ++t) {
      auto from = static_cast<std::size_t>(rng.next_below(accounts));
      auto to = static_cast<std::size_t>(rng.next_below(accounts));
      if (from == to) continue;
      const auto amount = static_cast<std::int64_t>(rng.next_below(100));
      // Deadlock freedom: global acquisition order by index.
      Account& first = ledger[std::min(from, to)];
      Account& second = ledger[std::max(from, to)];
      first.lock.lock();
      second.lock.lock();
      ledger[from].balance -= amount;
      ledger[to].balance += amount;
      second.lock.unlock();
      first.lock.unlock();
    }
  });
  done.store(true);
  auditor.join();

  std::int64_t total = 0;
  for (auto& a : ledger) total += a.balance;

  std::printf("bank_ledger: %zu accounts, %zu threads, %zu transfers each\n",
              accounts, threads, transfers);
  std::printf("  final total   : %lld (expected %lld) %s\n",
              static_cast<long long>(total),
              static_cast<long long>(expected_total),
              total == expected_total ? "OK" : "CORRUPTED");
  std::printf("  auditor sweeps: %llu complete, %llu record skips "
              "(bounded impatience)\n",
              static_cast<unsigned long long>(audits.load()),
              static_cast<unsigned long long>(audit_skips.load()));
  return total == expected_total ? 0 : 1;
}
