// fig10_hier — Experiment F10: hierarchical (cohort) QSV on clustered
// NUMA. Reconstructed claim: preferring intra-cohort handoffs up to a
// fairness budget converts most lock transfers into node-local traffic;
// remote references per acquisition drop well below flat queue locks,
// and the effect grows with cluster size. Budget 0 degenerates to flat
// QSV plus one hop (the ablation control).
//
// The "native" section runs the catalogue's hier-qsv row (the QSV×QSV
// cohort composition over blocks of four threads) against flat QSV and
// reports throughput plus the pass/acquire event mix.
#include <algorithm>

#include "benchreg/kernels.hpp"
#include "benchreg/registry.hpp"
#include "catalog/any_primitive.hpp"
#include "catalog/catalog.hpp"
#include "core/syncvar.hpp"
#include "platform/affinity.hpp"
#include "platform/topology.hpp"
#include "sim/protocols.hpp"

namespace {

/// The native team: one pure spinner per allowed CPU, 2 to 8 of them.
/// `--threads` overrides it, oversubscription included.
std::size_t native_team(const qsv::benchreg::Params& params) {
  return params.threads_or(std::max<std::size_t>(
      2, std::min<std::size_t>(8, qsv::platform::available_cpus())));
}

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const auto rounds = params.scale_count(24, 50.0);
  const auto threads = native_team(params);
  const double seconds = params.seconds(0.3);

  // ---- simulated remote refs per acquisition -------------------------
  const std::vector<std::size_t> procs{8, 16, 32};
  const std::size_t ppn = 4;  // 4-processor NUMA nodes
  for (const std::string algo : {"ticket", "mcs", "qsv", "hier-qsv"}) {
    if (!params.algo_match(algo)) continue;
    for (auto p : procs) {
      const auto r = qsv::sim::run_lock_sim(
          algo, p, rounds, qsv::sim::Topology::kNuma, 50, ppn);
      if (!r.completed) {
        report.fail("sim deadlock: " + algo + " at P=" + std::to_string(p));
        return report;
      }
      report.add()
          .set("section", "sim")
          .set("algorithm", algo)
          .set("procs", p)
          .set("remote_per_op", qsv::benchreg::Value(r.remote_per_op(), 2));
    }
  }

  // ---- native throughput + event mix ---------------------------------
  // 100 ns critical sections. A team oversubscribed by --threads gets
  // the external watchdog (the fig10c precedent): under pure spin no
  // member can be trusted with timer duty.
  const bool oversubscribed = threads > qsv::platform::available_cpus();
  const auto run_native = [&](qsv::catalog::AnyPrimitive& lock) {
    return qsv::benchreg::run_lock_loop(lock, threads, seconds,
                                        oversubscribed, /*cs_ns=*/100);
  };
  {
    auto flat = qsv::catalog::wrap<qsv::core::QsvMutex>();
    const auto res = run_native(*flat);
    if (!res.ok) {
      report.fail("mutual exclusion violated: qsv (flat)");
      return report;
    }
    report.add()
        .set("section", "native")
        .set("algorithm", "qsv (flat)")
        .set("mops", qsv::benchreg::Value(res.throughput_mops(), 2));
  }
  const auto* hier_row = qsv::catalog::find("hier-qsv");
  for (const std::size_t budget : {0ul, 4ul, 16ul, 64ul}) {
    // Pure spin, the 1991 waiting; the lock's telemetry record supplies
    // the pass/acquire event mix.
    auto hier = hier_row->make_budgeted(threads, qsv::wait_policy::spin,
                                        budget);
    const auto res = run_native(*hier);
    if (!res.ok) {
      report.fail("mutual exclusion violated: hier-qsv");
      return report;
    }
    const auto* rec = hier->telemetry();
    const auto passes = rec != nullptr ? rec->local_passes() : 0;
    const auto acqs = rec != nullptr ? rec->global_acquires() : 0;
    const double pct = res.ops ? 100.0 * static_cast<double>(passes) /
                                     static_cast<double>(res.ops)
                               : 0.0;
    report.add()
        .set("section", "native")
        .set("algorithm", "hier-qsv")
        .set("block", std::size_t{4})
        .set("budget", budget)
        .set("mops", qsv::benchreg::Value(res.throughput_mops(), 2))
        .set("local_pass_pct", qsv::benchreg::Value(pct, 1))
        .set("global_acquires", acqs);
  }
  report.note("sim section: remote references per acquisition, 4 procs/node;"
              " native section: 100ns critical sections");
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "hier",
    .id = "fig10",
    .kind = qsv::benchreg::Kind::kFigure,
    .title = "hierarchical QSV on clustered NUMA (simulated + native)",
    .claim = "cohort passes turn remote handoffs into local ones",
    .run = run,
}};

// ---- fig10 extension: the generic cohort combinator -------------------
// Sweeps every kCohort catalogue entry (the CohortLock compositions,
// hier-qsv among them) across local-handoff budgets through the shared
// contention runner, and records the machine topology the cohorts were
// derived from. CI emits this as BENCH_cohort.json.
qsv::benchreg::Report run_cohort(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const auto threads = native_team(params);
  const double seconds = params.seconds(0.2);

  const auto& topo = qsv::platform::topology();
  report.add()
      .set("section", "topology")
      .set("packages", topo.package_count())
      .set("nodes", topo.node_count())
      .set("cpus", topo.cpu_count())
      .set("fallback", topo.is_fallback() ? 1 : 0);

  // External watchdog once --threads outnumbers the processors: a
  // pure-spin cohort chain on an oversubscribed host makes progress
  // only through preemption, so no team member can be trusted with
  // timer duty (the abl1/abl4 precedent).
  const bool oversubscribed = threads > qsv::platform::available_cpus();

  const auto cohort_entries =
      qsv::catalog::filter(qsv::catalog::Family::kLock, qsv::catalog::kCohort);
  for (const auto* entry : cohort_entries) {
    if (!params.algo_match(entry->name)) continue;
    if (!entry->make_budgeted) continue;  // cohort bit without the factory
    for (const std::size_t budget : {0ul, 4ul, 16ul, 64ul}) {
      auto lock = entry->make_budgeted(threads,
                                       qsv::get_default_wait_policy(), budget);
      const auto res =
          qsv::benchreg::run_lock_loop(*lock, threads, seconds,
                                       oversubscribed);
      if (!res.ok) {
        report.fail("mutual exclusion violated: " + entry->name +
                    " at budget " + std::to_string(budget));
        return report;
      }
      report.add()
          .set("section", "native")
          .set("algorithm", entry->name)
          .set("budget", budget)
          .set("mops", qsv::benchreg::Value(res.throughput_mops(), 2));
    }
  }
  report.note("cohort/* entries take cohorts from the discovered topology"
              " (see section=topology row); hier-qsv is cohort/qsv+qsv"
              " over a fixed block-of-4 cohort map; empty critical"
              " sections; budget 0 = flat-global ablation");
  return report;
}

qsv::benchreg::Registrar reg_cohort{{
    .name = "cohort",
    .id = "fig10c",
    .kind = qsv::benchreg::Kind::kFigure,
    .title = "cohort combinator: compositions x budgets on the real topology",
    .claim = "budgeted local handoff helps any global x local lock pair",
    .run = run_cohort,
}};

}  // namespace
