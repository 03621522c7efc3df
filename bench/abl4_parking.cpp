// abl4_parking — Ablation A4: the mechanism against the futex.
// Rows:
//   qsv/spin      — the 1991 protocol, pure user-space spinning
//                   (RuntimeWait, wait_policy::spin)
//   qsv/park      — same protocol, terminal wait via OS futex
//                   (RuntimeWait, wait_policy::park: std::atomic::wait
//                   past the default spin budget)
//   futex         — the classic 3-state futex mutex (locks/futex.hpp; no
//                   queue protocol at all: what "superseded by futex"
//                   looks like when the mechanism is dropped entirely)
//   std::mutex    — the platform's production lock
// Claim: dedicated cores leave the strategies close (fast path is one
// RMW everywhere); oversubscription collapses pure spin while every
// parking variant keeps throughput.
#include <mutex>

#include "benchreg/kernels.hpp"
#include "benchreg/registry.hpp"
#include "core/qsv_mutex.hpp"
#include "locks/futex.hpp"
#include "qsv/wait.hpp"

namespace {

/// `args` are the lock's constructor arguments (the wait policy for
/// the RuntimeWait rows).
template <typename Lock, typename... Args>
bool run_variant(qsv::benchreg::Report& report, const char* algo,
                 std::size_t dedicated, std::size_t oversub,
                 double seconds, Args... args) {
  double results[2];
  const std::size_t teams[2] = {dedicated, oversub};
  for (int i = 0; i < 2; ++i) {
    Lock lock(args...);
    const auto r = qsv::benchreg::run_lock_loop(lock, teams[i], seconds,
                                                /*external_watchdog=*/true);
    if (!r.ok) {
      report.fail("integrity failure in parking ablation");
      return false;
    }
    results[i] = r.throughput_mops();
  }
  report.add()
      .set("algorithm", algo)
      .set("dedicated_mops", qsv::benchreg::Value(results[0], 2))
      .set("oversub_2x_mops", qsv::benchreg::Value(results[1], 2));
  return true;
}

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const double seconds = params.seconds(0.25);
  const std::size_t cores = qsv::platform::available_cpus();
  const std::size_t dedicated =
      params.threads_or(cores >= 8 ? 8 : cores);
  const std::size_t oversub = 2 * cores;

  const auto want = [&](const char* algo) {
    return report.ok && params.algo_match(algo);
  };
  if (want("qsv/spin")) {
    run_variant<qsv::core::QsvMutex>(report, "qsv/spin", dedicated, oversub,
                                     seconds, qsv::wait_policy::spin);
  }
  if (want("qsv/park")) {
    run_variant<qsv::core::QsvMutex>(report, "qsv/park", dedicated, oversub,
                                     seconds, qsv::wait_policy::park);
  }
  if (want("futex")) {
    run_variant<qsv::locks::FutexMutex>(report, "futex", dedicated,
                                        oversub, seconds);
  }
  if (want("std::mutex")) {
    run_variant<std::mutex>(report, "std::mutex", dedicated, oversub,
                            seconds);
  }
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "parking",
    .id = "abl4",
    .kind = qsv::benchreg::Kind::kAblation,
    .title = "QSV spinning and parking against the futex",
    .claim = "parking variants survive oversubscription; pure spin does "
             "not",
    .run = run,
}};

}  // namespace
