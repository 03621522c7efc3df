// protocols.hpp — synchronization protocols ported to the simulator.
//
// Each port mirrors its real implementation line for line (compare
// mcs_worker with core/qsv_mutex.hpp) but executes on sim::Machine, so
// the figures report the interconnect traffic the 1991 paper measured
// on real hardware. "Pointers" in simulated memory are processor/node ids
// biased by +1 (0 = null).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/topology.hpp"
#include "sim/machine.hpp"

namespace qsv::sim {

/// Outcome of one simulated contention run.
struct SimRunResult {
  std::string algorithm;
  std::size_t processors = 0;
  std::uint64_t operations = 0;  ///< acquisitions or barrier episodes
  Counters counters;
  Cycles elapsed = 0;
  bool completed = false;  ///< false = protocol deadlocked / horizon hit
  /// Handoff locality, filled by the cohort port (hier-qsv and the
  /// cohort/* compositions): intra-cohort local passes vs global-tier
  /// acquisitions. Zero for flat protocols.
  std::uint64_t local_passes = 0;
  std::uint64_t global_acquires = 0;

  /// An incomplete run (deadlock or horizon) carries partial counters
  /// that look plausible per-op; every derived accessor refuses to
  /// serve them so a bad run can never ride into a figure silently.
  void require_completed() const {
    if (!completed) {
      throw std::logic_error(
          "sim result is not a valid datapoint: '" + algorithm +
          "' did not complete (deadlock or horizon hit)");
    }
  }

  double bus_per_op() const {
    require_completed();
    return operations ? static_cast<double>(counters.bus_transactions) /
                            static_cast<double>(operations)
                      : 0.0;
  }
  double remote_per_op() const {
    require_completed();
    return operations ? static_cast<double>(counters.remote_refs) /
                            static_cast<double>(operations)
                      : 0.0;
  }
  double cross_package_per_op() const {
    require_completed();
    return operations ? static_cast<double>(counters.cross_package_refs) /
                            static_cast<double>(operations)
                      : 0.0;
  }
  double invalidations_per_op() const {
    require_completed();
    return operations ? static_cast<double>(counters.invalidations) /
                            static_cast<double>(operations)
                      : 0.0;
  }
  /// Fraction of acquisitions served by an intra-cohort pass.
  double local_pass_fraction() const {
    require_completed();
    return operations ? static_cast<double>(local_passes) /
                            static_cast<double>(operations)
                      : 0.0;
  }
};

/// Lock algorithms available in the simulator (fig2/fig3/fig10/fig12
/// rows). Includes the cohort combinator compositions under their
/// catalogue names ("cohort/qsv+qsv", "cohort/ticket+mcs", ...): both
/// tiers collapse to the two dialects the sim speaks — queue (the
/// MCS/QSV shape) and ticket.
const std::vector<std::string>& sim_lock_names();

/// Default intra-cohort handoff budget of the cohort-structured sim
/// protocols ("hier-qsv", "cohort/*") — matches CohortLock's tuning.
inline constexpr std::uint64_t kSimHierBudget = 16;

/// Run `procs` simulated processors, each performing `rounds`
/// acquire/hold/release cycles (hold = `cs_cycles` of local work) on the
/// named lock protocol over the given topology. `procs_per_node` groups
/// processors into NUMA nodes (Machine); the "hier-qsv" and "cohort/*"
/// protocols use the same grouping as their cohort maps.
SimRunResult run_lock_sim(const std::string& algorithm, std::size_t procs,
                          std::size_t rounds, Topology topology,
                          Cycles cs_cycles = 50,
                          std::size_t procs_per_node = 1,
                          CostModel costs = CostModel{});

/// Topology-shaped run: the machine is built from `topo` (discovered or
/// synthetic_topology()), cohorts = the topology's NUMA nodes, and miss
/// costs derive from hop distance (see Machine's topology constructor).
/// `budget` is the intra-cohort handoff budget of the cohort-structured
/// protocols (ignored by flat ones); `max_cycles` bounds the run so a
/// deadlocked protocol at 1024 simulated cpus fails fast (completed ==
/// false) instead of spinning the host. `interconnect` picks the
/// coherent or Butterfly-class uncached directory machine.
SimRunResult run_lock_sim(const std::string& algorithm,
                          const qsv::platform::Topology& topo,
                          std::size_t rounds, Cycles cs_cycles = 50,
                          CostModel costs = CostModel{},
                          std::uint64_t budget = kSimHierBudget,
                          Cycles max_cycles = ~0ULL,
                          Topology interconnect = Topology::kNuma);

/// Barrier algorithms available in the simulator (fig5 rows).
const std::vector<std::string>& sim_barrier_names();

/// Run `procs` simulated processors through `episodes` barrier episodes.
SimRunResult run_barrier_sim(const std::string& algorithm, std::size_t procs,
                             std::size_t episodes, Topology topology);

/// Reader-indicator disciplines available in the simulator, under their
/// catalogue names: "qsv-rw" mirrors QsvRwLock's striped per-node
/// reader indicators (each reader RMWs a locally-homed stripe);
/// "qsv-rw/central" is the centralized control — every reader RMWs the
/// one shared count word, so each entry/exit invalidates every other
/// reader's copy.
const std::vector<std::string>& sim_rw_names();

/// Run `procs` simulated readers, each performing `rounds` read
/// acquire/hold/release cycles (hold = `read_cycles`) under the named
/// reader-indicator discipline. Measures the reader-side coherence
/// traffic fig8's throughput curves are downstream of.
SimRunResult run_rw_sim(const std::string& algorithm, std::size_t procs,
                        std::size_t rounds, Topology topology,
                        Cycles read_cycles = 20,
                        std::size_t procs_per_node = 1);

/// Eventcount implementations available in the simulator (F11's sim
/// section): "ec-central" polls one shared count word; "ec-queued"
/// waiters enqueue nodes and spin locally (the QSV protocol applied to
/// condition synchronization).
const std::vector<std::string>& sim_eventcount_names();

/// Run an eventcount rendezvous on `procs` processors: one producer
/// advances `events` times; every other processor awaits each value in
/// turn (a 1-to-(P-1) broadcast repeated `events` times — the worst
/// case for centralized polling, the intended case for queued wakes).
/// `produce_cycles` is the local work per event at the producer: small
/// values stress wake throughput (walk-bound, favors the centralized
/// count), large values stress idle waiting (poll-bound, favors queued
/// local spinning — the crossover experiment F11's sim section shows).
SimRunResult run_eventcount_sim(const std::string& algorithm,
                                std::size_t procs, std::size_t events,
                                Topology topology,
                                Cycles produce_cycles = 30);

}  // namespace qsv::sim
