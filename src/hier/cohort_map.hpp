// cohort_map.hpp — thread → cohort assignment for hierarchical locks.
//
// A *cohort* is a group of threads whose mutual lock handoffs are cheap
// (same bus segment / NUMA node / shared cache). The 1991 testbeds had
// this structure physically (Butterfly: processor-per-node; Symmetry:
// board-level clusters); the hierarchical extension of the QSV mechanism
// (DESIGN.md experiment F10) exploits it by preferring intra-cohort
// handoffs up to a fairness budget.
//
// Two policies:
//   * TopologyCohortMap — the production map: dense thread indices go
//     through the harness's round-robin CPU placement
//     (platform::cpu_for_index) to the NUMA node that cpu belongs to
//     (platform/topology.hpp). One cohort per node; on hosts without
//     multi-node structure the topology's single-node fallback makes
//     this one cohort spanning everything.
//   * BlockCohortMap — the explicit ablation control: `block`
//     consecutive indices share a cohort, the same shape a NUMA-aware
//     runtime would produce with one cohort per node, but independent
//     of the real machine so experiments can sweep cohort width.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "platform/thread_id.hpp"
#include "platform/affinity.hpp"
#include "platform/topology.hpp"

namespace qsv::hier {

namespace detail {
/// Cohort-map contract violations feed directly into cohort-table
/// indexing (a zero block is a divide-by-zero, an empty node an
/// unmapped cohort); abort deterministically in every build mode
/// rather than fall into UB — the node layer's precedent.
[[noreturn]] inline void cohort_fatal(const char* what) noexcept {
  std::fprintf(stderr, "libqsv cohort layer: %s\n", what);
  std::abort();
}
}  // namespace detail

/// Assignment of dense thread indices to cohorts: `block` consecutive
/// indices share a cohort. Immutable after construction; every method is
/// safe to call concurrently.
class BlockCohortMap {
 public:
  /// `block` = threads per cohort (>= 1). A block of 1 degenerates to
  /// "every thread its own cohort" (the lock then behaves like a flat
  /// QSV with an extra indirection — useful as an ablation control).
  /// A block of 0 would make every cohort_of a divide-by-zero; abort
  /// deterministically instead of leaving release builds to UB.
  explicit BlockCohortMap(std::size_t block) : block_(block) {
    if (block == 0) detail::cohort_fatal("cohort block must be at least 1");
  }

  /// Cohort of a dense thread index.
  std::size_t cohort_of(std::size_t thread_idx) const noexcept {
    return thread_idx / block_;
  }

  /// Cohort of the calling thread.
  std::size_t my_cohort() const noexcept {
    return cohort_of(qsv::platform::thread_index());
  }

  /// Upper bound on cohort ids that can appear for `max_threads` threads.
  std::size_t cohort_count(std::size_t max_threads) const noexcept {
    return (max_threads + block_ - 1) / block_;
  }

 private:
  std::size_t block_;
};

/// Assignment of dense thread indices to cohorts by *machine locality*:
/// thread index -> the cpu the harness's round-robin placement gives it
/// -> that cpu's NUMA node (one cohort per node). This is the map a
/// NUMA-aware runtime would hand the hierarchical locks; on single-node
/// hosts the topology fallback collapses it to one cohort, which the
/// cohort protocol handles (budgeted local handoffs, global acquired
/// once per tenure). Immutable after construction; safe to share.
class TopologyCohortMap {
 public:
  /// Build over the process topology (the default) or an injected one —
  /// the caller keeps an injected topology alive for the map's lifetime.
  explicit TopologyCohortMap(
      const qsv::platform::Topology& topo = qsv::platform::topology())
      : topo_(&topo), one_node_(topo.node_count() == 1) {
    if (topo.node_count() == 0) {
      detail::cohort_fatal("topology has no nodes");
    }
    for (const auto& node : topo.nodes()) {
      if (node.cpus.empty()) {
        detail::cohort_fatal("topology node without cpus cannot seat a cohort");
      }
    }
  }

  /// Cohort (= dense node index) of a dense thread index. A one-node
  /// topology answers 0 without the placement and node lookups, which
  /// are out of line and would otherwise run on every lock() and
  /// unlock() of the cohort lock.
  std::size_t cohort_of(std::size_t thread_idx) const noexcept {
    if (one_node_) return 0;
    return topo_->node_of_cpu(qsv::platform::cpu_for_index(thread_idx));
  }

  /// Cohort of the calling thread.
  std::size_t my_cohort() const noexcept {
    return one_node_ ? 0 : cohort_of(qsv::platform::thread_index());
  }

  /// One cohort per node, regardless of thread count — node ids are
  /// dense, so this covers every index cohort_of can produce.
  std::size_t cohort_count(std::size_t /*max_threads*/) const noexcept {
    return topo_->node_count();
  }

  const qsv::platform::Topology& topology() const noexcept { return *topo_; }

 private:
  const qsv::platform::Topology* topo_;
  bool one_node_;  ///< decided once: every thread is in cohort 0
};

}  // namespace qsv::hier
