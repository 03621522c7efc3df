// abl3_backoff — Ablation A3: backoff parameter sensitivity.
// Reconstructed claim (Anderson '90): TTAS is only competitive inside a
// band of backoff caps — too small recreates the collapse, too large
// idles the lock; the queue locks need no tuning at all (shown as the
// reference row).
#include <algorithm>

#include "benchreg/kernels.hpp"
#include "benchreg/registry.hpp"
#include "core/qsv_mutex.hpp"
#include "locks/ticket.hpp"
#include "locks/ttas.hpp"
#include "platform/backoff.hpp"

namespace {

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const auto threads = params.threads_or(
      std::min<std::size_t>(8, qsv::platform::available_cpus()));
  const double seconds = params.seconds(0.1);

  const auto measure = [&](const std::string& configuration, auto& lock) {
    if (!params.algo_match(configuration)) return true;
    const auto r = qsv::benchreg::run_lock_loop(lock, threads, seconds);
    if (!r.ok) {
      report.fail("integrity failure in backoff ablation");
      return false;
    }
    report.add()
        .set("configuration", configuration)
        .set("mops", qsv::benchreg::Value(r.throughput_mops(), 2));
    return true;
  };

  for (std::uint32_t cap : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    qsv::locks::TtasLock<> lock(qsv::platform::ExponentialBackoff(4, cap));
    if (!measure("ttas cap=" + std::to_string(cap), lock)) return report;
  }
  for (std::uint32_t slot : {4u, 32u, 128u, 512u}) {
    qsv::locks::TicketLockProportional lock(slot);
    if (!measure("ticket slot=" + std::to_string(slot), lock)) return report;
  }
  {
    qsv::core::QsvMutex lock;
    measure("qsv (no tuning)", lock);
  }
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "backoff",
    .id = "abl3",
    .kind = qsv::benchreg::Kind::kAblation,
    .title = "backoff sensitivity",
    .claim = "TTAS needs tuning; queue locks do not",
    .run = run,
}};

}  // namespace
