// tab1_uncontended — Experiment T1: single-thread acquire/release cost.
// Reconstructed claim: QSV's uncontended path is one fetch&store plus
// one compare&swap — within a small factor of raw TAS, far below any
// kernel-assisted lock. Measured with benchreg's calibrated ns/op
// kernel (median over --reps batches); the google-benchmark dependency
// of the original binary is gone.
#include <mutex>

#include "benchreg/registry.hpp"
#include "benchreg/stats.hpp"
#include "catalog/std_adapters.hpp"
#include "core/syncvar.hpp"
#include "hier/cohort_lock.hpp"
#include "hier/cohort_map.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/graunke_thakkar.hpp"
#include "locks/tas.hpp"
#include "locks/ticket.hpp"
#include "locks/ttas.hpp"
#include "platform/thread_id.hpp"

namespace {

template <typename Lock>
double cycle_ns(Lock& lock, const qsv::benchreg::Params& params,
                double budget_ms) {
  return qsv::benchreg::ns_per_op(
      [&lock] {
        lock.lock();
        qsv::benchreg::keep_alive(&lock);
        lock.unlock();
      },
      params.reps, budget_ms);
}

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const double budget_ms = params.budget_ms > 0.0 ? params.budget_ms : 20.0;
  const auto row = [&](const char* op, double ns) {
    report.add().set("op", op).set("ns_per_op", qsv::benchreg::Value(ns, 1));
  };
  const auto lock_row = [&](const char* op, auto& lock) {
    if (params.algo_match(op)) row(op, cycle_ns(lock, params, budget_ms));
  };

  {
    qsv::locks::TasLock l;
    lock_row("tas", l);
  }
  {
    qsv::locks::TtasLock<> l;
    lock_row("ttas", l);
  }
  {
    qsv::locks::TicketLock l;
    lock_row("ticket", l);
  }
  {
    qsv::locks::AndersonLock l(16);
    lock_row("anderson", l);
  }
  {
    qsv::locks::GraunkeThakkarLock l(qsv::platform::kMaxThreads);
    lock_row("graunke-thakkar", l);
  }
  {
    qsv::locks::ClhLock l;
    lock_row("clh", l);
  }
  {
    // Also the catalogue's "mcs" row: MCS's protocol is QSV's exclusive
    // mode, so one row times the class once.
    qsv::core::QsvMutex l;
    lock_row("qsv", l);
  }
  {
    qsv::core::QsvTimeoutMutex l;
    lock_row("qsv-timeout", l);
  }
  {
    // The cohort compositions, each after one warm-up cycle has built
    // the calling thread's cohort.
    qsv::hier::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex,
                          qsv::hier::BlockCohortMap>
        l(16, qsv::get_default_wait_policy(), qsv::hier::BlockCohortMap(4));
    l.lock();
    l.unlock();
    lock_row("hier-qsv", l);
  }
  {
    qsv::hier::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex> l;
    l.lock();
    l.unlock();
    lock_row("cohort/qsv+qsv", l);
  }
  {
    qsv::catalog::StdMutexAdapter l;
    lock_row("std::mutex", l);
  }
  {
    qsv::core::QsvRwLock<> l;
    lock_row("qsv-rw (writer)", l);
  }
  if (params.algo_match("qsv-rw (reader)")) {
    qsv::core::QsvRwLock<> l;
    row("qsv-rw (reader)", qsv::benchreg::ns_per_op(
                               [&l] {
                                 l.lock_shared();
                                 qsv::benchreg::keep_alive(&l);
                                 l.unlock_shared();
                               },
                               params.reps, budget_ms));
  }
  if (params.algo_match("qsv-rw/central (reader)")) {
    qsv::core::QsvRwLockCentral l;
    row("qsv-rw/central (reader)",
        qsv::benchreg::ns_per_op(
            [&l] {
              l.lock_shared();
              qsv::benchreg::keep_alive(&l);
              l.unlock_shared();
            },
            params.reps, budget_ms));
  }
  if (params.algo_match("qsv-semaphore")) {
    qsv::core::QsvSemaphore sem(1);
    row("qsv-semaphore", qsv::benchreg::ns_per_op(
                             [&sem] {
                               sem.acquire();
                               qsv::benchreg::keep_alive(&sem);
                               sem.release();
                             },
                             params.reps, budget_ms));
  }
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "uncontended",
    .id = "tab1",
    .kind = qsv::benchreg::Kind::kTable,
    .title = "single-thread acquire/release cost",
    .claim = "qsv uncontended path within a small factor of raw TAS",
    .run = run,
}};

}  // namespace
