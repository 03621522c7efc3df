// tab2_space — Experiment T2: memory cost per lock instance and per
// waiting thread. Reconstructed claim: QSV needs one word per variable
// plus one arena node per *waiting* thread, versus Anderson/GT's
// O(capacity) per instance — the space argument that motivated
// list-based queues in 1991.
//
// Every instrumented row also prices its telemetry: instrumented_bytes
// is the instance as built and used uncontended — in-object bytes
// (record and tallies included) plus the heap it owns, measured after
// one uncontended cycle — and cold_block_bytes is what the first
// contended acquisition adds.
#include <memory>
#include <mutex>

#include "benchreg/registry.hpp"
#include "core/syncvar.hpp"
#include "harness/team.hpp"
#include "hier/cohort_lock.hpp"
#include "hier/cohort_map.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/graunke_thakkar.hpp"
#include "locks/tas.hpp"
#include "locks/ticket.hpp"
#include "locks/ttas.hpp"
#include "obs/hook.hpp"
#include "obs/registry.hpp"
#include "platform/affinity.hpp"
#include "platform/cache.hpp"

namespace {

/// Telemetry heap an instance owns after one uncontended cycle: the
/// cold block if that cycle allocated one (it must not), else nothing.
template <typename Lock>
std::size_t telemetry_heap(Lock& lock) {
  lock.lock();
  lock.unlock();
  const qsv::obs::LockRec* rec = lock.telemetry();
  return rec != nullptr && rec->cold() != nullptr ? sizeof(qsv::obs::ColdRec)
                                                  : 0;
}

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const std::size_t cap = 64;
  const std::size_t cold = QSV_OBS ? sizeof(qsv::obs::ColdRec) : 0;
  const auto row = [&](const std::string& algo, std::size_t bytes,
                       const char* scales, std::size_t per_waiter,
                       std::size_t instrumented, std::size_t cold_block) {
    if (!params.algo_match(algo)) return;
    report.add()
        .set("algorithm", algo)
        .set("bytes_per_instance", bytes)
        .set("scales_with", scales)
        .set("per_waiter_bytes", per_waiter)
        .set("instrumented_bytes", instrumented)
        .set("cold_block_bytes", cold_block);
  };
  /// An instrumented row whose per-instance state is sizeof(Lock) plus
  /// `heap` bytes of protocol storage.
  const auto observed = [&](const std::string& algo, auto& lock,
                            std::size_t bytes, const char* scales,
                            std::size_t per_waiter, std::size_t heap = 0) {
    const std::size_t inst =
        sizeof(lock) + heap + telemetry_heap(lock);
    row(algo, bytes, scales, per_waiter, inst,
        lock.telemetry() != nullptr ? cold : 0);
  };

  qsv::locks::AndersonLock anderson(cap);
  qsv::locks::GraunkeThakkarLock gt(cap);
  const auto node = qsv::platform::kFalseSharingRange;

  qsv::locks::TasLock tas;
  qsv::locks::TtasLock<> ttas;
  qsv::locks::TicketLock ticket;
  qsv::locks::ClhLock clh;
  qsv::core::QsvMutex qsv_mutex;
  qsv::core::QsvTimeoutMutex timeout;
  qsv::core::QsvRwLock<> rw;

  observed("tas", tas, sizeof(tas), "constant", 0);
  observed("ttas+backoff", ttas, sizeof(ttas), "constant", 0);
  observed("ticket", ticket, sizeof(ticket), "constant", 0);
  observed("anderson (cap=" + std::to_string(cap) + ")", anderson,
           anderson.footprint_bytes(), "O(capacity) per instance", 0,
           anderson.footprint_bytes());
  observed("graunke-thakkar (cap=" + std::to_string(cap) + ")", gt,
           gt.footprint_bytes(), "O(capacity) per instance", 0,
           gt.footprint_bytes());
  observed("clh", clh, sizeof(clh), "constant", node);
  observed("qsv", qsv_mutex, sizeof(qsv_mutex),
           "constant (1 word + padding)", node);
  observed("qsv-timeout", timeout, sizeof(timeout), "constant", node);
  observed("qsv-rw", rw, sizeof(rw), "constant (4 words + padding)", 0);
  row("std::mutex", sizeof(std::mutex), "constant", 0, sizeof(std::mutex),
      0);

  // The cohort compositions build a cohort's slab on its first use:
  // footprint_bytes() after one thread's cycle, then after one thread
  // per allowed CPU has taken the lock, with the registry records the
  // instance holds at each point.
  const auto cohort_row = [&](const std::string& algo, auto make) {
    if (!params.algo_match(algo)) return;
    const std::size_t before = qsv::obs::size();
    auto lock = make();
    lock->lock();
    lock->unlock();
    const std::size_t one = lock->footprint_bytes();
    const std::size_t one_records = qsv::obs::size() - before;
    const std::size_t crew = qsv::platform::available_cpus();
    qsv::harness::ThreadTeam::run(crew, [&](std::size_t) {
      for (int i = 0; i < 1000; ++i) {
        lock->lock();
        lock->unlock();
      }
    });
    report.add()
        .set("algorithm", algo)
        .set("bytes_per_instance", one)
        .set("scales_with", "cohorts used")
        .set("per_waiter_bytes", node)
        .set("records", one_records)
        .set("crew", crew)
        .set("crew_bytes", lock->footprint_bytes())
        .set("crew_records", qsv::obs::size() - before);
  };
  using QsvQsv = qsv::hier::CohortLock<qsv::core::QsvMutex,
                                       qsv::core::QsvMutex>;
  using HierQsv = qsv::hier::CohortLock<qsv::core::QsvMutex,
                                        qsv::core::QsvMutex,
                                        qsv::hier::BlockCohortMap>;
  cohort_row("hier-qsv", [] {
    return std::make_unique<HierQsv>(16, qsv::get_default_wait_policy(),
                                     qsv::hier::BlockCohortMap(4));
  });
  cohort_row("cohort/qsv+qsv", [] { return std::make_unique<QsvQsv>(); });
  report.note("instrumented_bytes: in-object bytes (telemetry record and "
              "tallies included) plus owned heap after one uncontended "
              "cycle; cold_block_bytes: added by the first contended "
              "acquisition");
  report.note("hier-qsv, cohort/qsv+qsv: bytes_per_instance and records "
              "after one thread's cycle, crew_bytes and crew_records after "
              "`crew` threads took the lock");
  report.note("qsv (also the catalogue's mcs row), qsv-timeout: one "
              "64-byte line — the lock word, its tallies, the record's "
              "kind, cold-block pointer and registry slot number, and the "
              "wait policy; the registry keeps the rest of each record in "
              "a slot of its own table, outside the instance");
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "space",
    .id = "tab2",
    .kind = qsv::benchreg::Kind::kTable,
    .title = "space accounting",
    .claim = "qsv = 1 word/variable + 1 node/waiter",
    .run = run,
}};

}  // namespace
