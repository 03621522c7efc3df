// builtin.cpp — the stock catalogue: every synchronization primitive
// libqsv ships, 1991 baselines and QSV variants alike, in one list.
//
// Registration order is presentation order within each family (the
// paper-style tables: strawmen, array queue locks, list queue locks,
// modern baselines, then the reconstructed QSV contribution). Adding an
// algorithm is one QSV_CATALOG_REGISTER line here — or in any other
// linked translation unit; capabilities and family are derived from
// the type, so there is nothing else to keep in sync.
//
// Waiting is a runtime dimension, not an entry: the per-policy rows
// the catalogue used to carry ("qsv/yield", "qsv/park",
// "qsv-episode/park") are gone. Each primitive appears once, its caps
// carry the wait-mode bits, and make_with(capacity, policy) selects
// the mode — `qsvbench --wait=...` sweeps it.
#include "catalog/catalog.hpp"

#include "barriers/central.hpp"
#include "barriers/combining_tree.hpp"
#include "barriers/dissemination.hpp"
#include "barriers/mcs_tree.hpp"
#include "barriers/tournament.hpp"
#include "catalog/std_adapters.hpp"
#include "combining/fc_executor.hpp"
#include "combining/fc_queue.hpp"
#include "combining/sharded_map.hpp"
#include "combining/striped_accumulator.hpp"
#include "core/syncvar.hpp"
#include "eventcount/eventcount.hpp"
#include "hier/cohort_lock.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/futex.hpp"
#include "locks/graunke_thakkar.hpp"
#include "locks/tas.hpp"
#include "locks/ticket.hpp"
#include "locks/ttas.hpp"
#include "platform/thread_id.hpp"
#include "platform/wait.hpp"
#include "rwlocks/central_rw.hpp"
#include "sim/protocols.hpp"

namespace qsv::catalog {
namespace detail {

// Referenced by catalog.cpp so this object file — nothing but static
// registrars otherwise — survives static-library linking.
void builtin_anchor() {}

}  // namespace detail
}  // namespace qsv::catalog

namespace {

// ------------------------------------------------------------- locks
using TtasBackoff = qsv::locks::TtasLock<>;

QSV_CATALOG_REGISTER(qsv::locks::TasLock, "tas");
QSV_CATALOG_REGISTER(qsv::locks::TtasNoBackoffLock, "ttas");
QSV_CATALOG_REGISTER(TtasBackoff, "ttas+backoff");
QSV_CATALOG_REGISTER(qsv::locks::TicketLock, "ticket");
// ticket+prop's size_t parameter is a backoff slot (ns), not a
// capacity: it takes its tuned default.
QSV_CATALOG_REGISTER_DEFAULT(qsv::locks::TicketLockProportional,
                             "ticket+prop");
QSV_CATALOG_REGISTER(qsv::locks::AndersonLock, "anderson");

// Graunke–Thakkar indexes its flag array by the dense thread index
// (platform::thread_index()). Indices are recycled at thread exit and
// so bounded by kMaxThreads *concurrent* threads — but not by one
// run's contender count: a 2-thread run can legally see any index up
// to the process's concurrency high-water mark. Size the instance by
// kMaxThreads; the old per-family registry passed the sweep's thread
// count here and corrupted the heap once thread indices passed it.
static const qsv::catalog::Registrar qsv_cat_reg_gt{[] {
  auto e = qsv::catalog::entry<qsv::locks::GraunkeThakkarLock>(
      "graunke-thakkar");
  e.make_with = [](std::size_t, qsv::wait_policy) {
    return qsv::catalog::wrap<qsv::locks::GraunkeThakkarLock>(
        qsv::platform::kMaxThreads);
  };
  return e;
}()};
QSV_CATALOG_REGISTER(qsv::locks::ClhLock, "clh");
// The QSV exclusive protocol is MCS's list-based queue lock (1991):
// "mcs" and the cohort rows named after it are compositions of
// QsvMutex, kept under the names the figures and the simulator use.
QSV_CATALOG_REGISTER(qsv::core::QsvMutex, "mcs");
QSV_CATALOG_REGISTER(qsv::catalog::StdMutexAdapter, "std::mutex");
// The classic 3-state futex mutex — the "what the mechanism became"
// baseline, now a first-class row.
QSV_CATALOG_REGISTER(qsv::locks::FutexMutex, "futex");
QSV_CATALOG_REGISTER(qsv::core::QsvMutex, "qsv");
QSV_CATALOG_REGISTER(qsv::core::QsvTimeoutMutex, "qsv-timeout");

// ---------------------------------------------------- cohort compositions
// The cohort combinator (hier/cohort_lock.hpp) over pairs of catalogue
// mutexes: global tier × local (per-NUMA-node) tier, cohorts from the
// discovered topology. hier-qsv is the QSV×QSV composition over fixed
// blocks of four threads, independent of the machine; cohort/mcs+mcs
// is cohort/qsv+qsv under its MCS name, and the ticket rows pair the
// queue lock with a centralized tier as control.
using HierQsv = qsv::hier::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex,
                                      qsv::hier::BlockCohortMap>;
using CohortQsvQsv =
    qsv::hier::CohortLock<qsv::core::QsvMutex, qsv::core::QsvMutex>;
using CohortQsvTicket =
    qsv::hier::CohortLock<qsv::core::QsvMutex, qsv::locks::TicketLock>;
using CohortTicketQsv =
    qsv::hier::CohortLock<qsv::locks::TicketLock, qsv::core::QsvMutex>;
// Both tiers centralized: the all-ticket composition is the scale
// oracle's worst-case control (every wait spins on a shared serving
// word), bounding the cohort effect from below in fig12.
using CohortTicketTicket =
    qsv::hier::CohortLock<qsv::locks::TicketLock, qsv::locks::TicketLock>;

static const qsv::catalog::Registrar qsv_cat_reg_hier{
    qsv::catalog::entry_cohort<HierQsv>("hier-qsv",
                                        qsv::hier::BlockCohortMap(4))};
QSV_CATALOG_REGISTER_COHORT(CohortQsvQsv, "cohort/qsv+qsv");
QSV_CATALOG_REGISTER_COHORT(CohortQsvQsv, "cohort/mcs+mcs");
QSV_CATALOG_REGISTER_COHORT(CohortQsvTicket, "cohort/qsv+ticket");
QSV_CATALOG_REGISTER_COHORT(CohortTicketQsv, "cohort/ticket+mcs");
QSV_CATALOG_REGISTER_COHORT(CohortTicketTicket, "cohort/ticket+ticket");

// ---------------------------------------------------------- barriers
QSV_CATALOG_REGISTER(qsv::barriers::CentralBarrier, "central");
QSV_CATALOG_REGISTER(qsv::barriers::CombiningTreeBarrier<>, "combining-tree");
QSV_CATALOG_REGISTER(qsv::barriers::TournamentBarrier, "tournament");
QSV_CATALOG_REGISTER(qsv::barriers::DisseminationBarrier, "dissemination");
QSV_CATALOG_REGISTER(qsv::barriers::McsTreeBarrier, "mcs-tree");
QSV_CATALOG_REGISTER(qsv::catalog::StdBarrierAdapter, "std::barrier");
QSV_CATALOG_REGISTER(qsv::core::QsvBarrier, "qsv-episode");

// ----------------------------------------------------------- rwlocks
QSV_CATALOG_REGISTER(qsv::rwlocks::ReaderPrefRwLock, "central-rw/reader-pref");
QSV_CATALOG_REGISTER(qsv::rwlocks::WriterPrefRwLock, "central-rw/writer-pref");
QSV_CATALOG_REGISTER(qsv::catalog::StdSharedMutexAdapter,
                     "std::shared_mutex");
QSV_CATALOG_REGISTER(qsv::core::QsvRwLock<>, "qsv-rw");
QSV_CATALOG_REGISTER(qsv::core::QsvRwLockCentral, "qsv-rw/central");

// -------------------------------------------- combining and containers
// The delegation layer: fc-mutex is the flat-combining executor over
// the QSV mutex wearing its lock face (an unlock serves any posted
// backlog), and the containers are the first concrete
// structures over it. Each fc/* container has a plain/* twin on
// PlainExecutor — same structure, ordinary lock handoff — so tab4
// measures the combining effect in isolation. Their size_t
// constructor parameters are ring capacity / shard count / stripe
// count, never a thread capacity: entry_default throughout.
using FcMutex = qsv::combining::FcExecutor<qsv::core::QsvMutex>;
using PlainExec = qsv::combining::PlainExecutor<qsv::core::QsvMutex>;
using FcQueueU64 = qsv::combining::FcMpmcQueue<std::uint64_t>;
using PlainQueueU64 =
    qsv::combining::FcMpmcQueue<std::uint64_t, PlainExec>;
using FcMapU64 = qsv::combining::ShardedMap<std::uint64_t, std::uint64_t>;
using PlainMapU64 =
    qsv::combining::ShardedMap<std::uint64_t, std::uint64_t, PlainExec>;
using FcMapCohort = qsv::combining::ShardedMap<
    std::uint64_t, std::uint64_t,
    qsv::combining::FcExecutor<CohortQsvQsv>>;

QSV_CATALOG_REGISTER(FcMutex, "fc-mutex");
QSV_CATALOG_REGISTER_DEFAULT(FcQueueU64, "fc/queue");
QSV_CATALOG_REGISTER_DEFAULT(PlainQueueU64, "plain/queue");
QSV_CATALOG_REGISTER_DEFAULT(FcMapU64, "fc/map");
QSV_CATALOG_REGISTER_DEFAULT(PlainMapU64, "plain/map");
QSV_CATALOG_REGISTER_DEFAULT(FcMapCohort, "fc/map/cohort");
QSV_CATALOG_REGISTER(qsv::combining::FcCounter, "fc-counter");
QSV_CATALOG_REGISTER_DEFAULT(qsv::combining::StripedAccumulator,
                             "striped-acc");

// -------------------------------------------------------- eventcounts
// Condition synchronization joins the catalogue: the centralized
// (fig11's strawman) and queued (QSV node protocol) eventcounts.
QSV_CATALOG_REGISTER(qsv::eventcount::EventCount, "eventcount");
QSV_CATALOG_REGISTER(qsv::eventcount::QueuedEventCount, "queued-ec");

// ---------------------------------------------------------- simulable
// kSimulable is tagged from the simulator's own name lists — an entry
// earns the bit iff src/sim/protocols.cpp carries a port under the
// exact catalogue name, so the bit can never drift from what the scale
// oracle can actually replay. (The eventcount ports exist too but under
// sim-specific names, so those entries stay untagged.) This initializer
// runs after every Registrar above: within one translation unit,
// dynamic initialization is sequential.
[[maybe_unused]] static const bool qsv_cat_simulable_tagged = [] {
  for (const auto* names :
       {&qsv::sim::sim_lock_names(), &qsv::sim::sim_barrier_names(),
        &qsv::sim::sim_rw_names()}) {
    for (const std::string& name : *names) {
      qsv::catalog::add_capability(name, qsv::catalog::kSimulable);
    }
  }
  return true;
}();

// ---------------------------------------------------------- checkable
// kCheckable marks the rows whose every wait reaches the chk_hook seam
// (platform/chk_hook.hpp): raw spins poll through cpu_relax, terminal
// waits go through platform::RuntimeWait. qsv::chk's battery
// (chk/battery.cpp) explores exactly these rows. Excluded: the std::
// adapters — their kernel waits bypass the seam, so the serializing
// scheduler cannot take control of them.
[[maybe_unused]] static const bool qsv_cat_checkable_tagged = [] {
  static constexpr const char* kCheckableRows[] = {
      // locks
      "tas", "ttas", "ttas+backoff", "ticket", "ticket+prop", "anderson",
      "graunke-thakkar", "clh", "mcs", "futex", "qsv", "qsv-timeout",
      "hier-qsv", "cohort/qsv+qsv", "cohort/mcs+mcs", "cohort/qsv+ticket",
      "cohort/ticket+mcs", "cohort/ticket+ticket",
      // rwlocks
      "central-rw/reader-pref", "central-rw/writer-pref", "qsv-rw",
      "qsv-rw/central",
  };
  for (const char* name : kCheckableRows) {
    qsv::catalog::add_capability(name, qsv::catalog::kCheckable);
  }
  return true;
}();

}  // namespace
