// fig11_eventcount — Experiment F11: condition synchronization without
// locks. The same bounded-buffer workload runs over
//   * ring/qsv     — QSV mutex + two QSV semaphores (workload/ring.hpp),
//   * ec/central   — Reed-Kanodia eventcount/sequencer ring, centralized
//                    counts (every advance invalidates every waiter),
//   * ec/queued    — same discipline, waiters spin on their own node
//                    (the QSV protocol applied to condition sync).
// Reconstructed claim: the eventcount discipline removes the lock from
// the hot path; the queued variant additionally removes centralized
// spinning, which matters as waiters accumulate.
#include <algorithm>
#include <utility>
#include <vector>

#include "benchreg/registry.hpp"
#include "eventcount/bounded_ring.hpp"
#include "harness/team.hpp"
#include "platform/affinity.hpp"
#include "platform/timing.hpp"
#include "sim/protocols.hpp"
#include "workload/ring.hpp"

namespace {

/// Drive `producers` + `consumers` threads through `items` total
/// transfers; returns achieved transfers per second.
template <typename Ring>
double run_ring(Ring& ring, std::size_t producers, std::size_t consumers,
                std::uint64_t items) {
  // Distribute quotas so total pushes == total pops == items exactly; a
  // mismatch would leave a consumer blocked on an item that never comes.
  const auto quota = [items](std::size_t rank, std::size_t n) {
    return items / n + (rank < items % n ? 1 : 0);
  };
  const std::uint64_t t0 = qsv::platform::now_ns();
  qsv::harness::ThreadTeam::run(producers + consumers, [&](std::size_t r) {
    if (r < producers) {
      const std::uint64_t mine = quota(r, producers);
      for (std::uint64_t i = 0; i < mine; ++i) {
        ring.push(static_cast<std::uint32_t>(i));
      }
    } else {
      const std::uint64_t mine = quota(r - producers, consumers);
      for (std::uint64_t i = 0; i < mine; ++i) {
        (void)ring.pop();
      }
    }
  });
  const double secs =
      static_cast<double>(qsv::platform::now_ns() - t0) * 1e-9;
  return static_cast<double>(items) / secs;
}

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const std::uint64_t items = params.scale_count(400000, 300.0);
  const std::size_t capacity = 64;

  // Producer+consumer shapes of at most n threads, n = the host's CPUs
  // capped at 8, at least 2 (--threads sets n): the default pure-spin
  // policy never puts more spinners than CPUs. 8 CPUs give 1+1, 2+2,
  // 4+4, 1+7 and 7+1; 4 CPUs give 1+1, 2+2, 1+3 and 3+1.
  const std::size_t n = std::max<std::size_t>(
      2, params.threads_or(
             std::min<std::size_t>(8, qsv::platform::available_cpus())));
  using Shape = std::pair<std::size_t, std::size_t>;
  std::vector<Shape> shapes;
  for (const Shape& s : {Shape{1, 1}, Shape{2, 2}, Shape{n / 2, n / 2},
                         Shape{1, n - 1}, Shape{n - 1, 1}}) {
    if (s.first == 0 || s.second == 0 || s.first + s.second > n ||
        std::find(shapes.begin(), shapes.end(), s) != shapes.end()) {
      continue;
    }
    shapes.push_back(s);
  }
  for (const auto& [p, c] : shapes) {
    double qsv_rate, ec_rate, ecq_rate;
    {
      qsv::workload::BoundedRing<std::uint32_t> ring(capacity);
      qsv_rate = run_ring(ring, p, c, items);
    }
    {
      qsv::eventcount::EcBoundedRing<std::uint32_t,
                                     qsv::eventcount::EventCount>
          ring(capacity);
      ec_rate = run_ring(ring, p, c, items);
    }
    {
      qsv::eventcount::EcBoundedRing<std::uint32_t,
                                     qsv::eventcount::QueuedEventCount>
          ring(capacity);
      ecq_rate = run_ring(ring, p, c, items);
    }
    report.add()
        .set("section", "ring")
        .set("producers", p)
        .set("consumers", c)
        .set("ring_qsv_mps", qsv::benchreg::Value(qsv_rate * 1e-6, 2))
        .set("ec_central_mps", qsv::benchreg::Value(ec_rate * 1e-6, 2))
        .set("ec_queued_mps", qsv::benchreg::Value(ecq_rate * 1e-6, 2));
  }

  // ---- sim section: centralized vs queued waiting on the Butterfly ----
  for (const qsv::sim::Cycles period : {30u, 300u, 1500u, 5000u}) {
    const auto c = qsv::sim::run_eventcount_sim(
        "ec-central", 16, 16, qsv::sim::Topology::kNumaUncached, period);
    const auto q = qsv::sim::run_eventcount_sim(
        "ec-queued", 16, 16, qsv::sim::Topology::kNumaUncached, period);
    if (!c.completed || !q.completed) {
      report.fail("sim deadlock in eventcount section");
      return report;
    }
    report.add()
        .set("section", "sim")
        .set("event_period_cycles", std::uint64_t{period})
        .set("ec_central_remote_per_event",
             qsv::benchreg::Value(c.remote_per_op(), 1))
        .set("ec_queued_remote_per_event",
             qsv::benchreg::Value(q.remote_per_op(), 1));
  }
  report.note("sim crossover: central wins when events are frequent — the "
              "queued walk costs O(waiters) remote stores; queued wins, "
              "flat, when waits dominate — idle polling is free on the "
              "waiter's own node");
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "eventcount",
    .id = "fig11",
    .kind = qsv::benchreg::Kind::kFigure,
    .title = "bounded-buffer throughput — locks vs eventcounts",
    .claim = "eventcount discipline drops the lock from the hot path",
    .run = run,
}};

}  // namespace
