// tab4_containers — the container macro-benchmark: mixed
// produce/consume/lookup traffic over the first concurrent structures
// (sharded hash map + MPMC queue), flat-combining executors vs the
// same structures under plain per-shard lock handoff.
//
// Reconstructed claim (the FC paper's, transplanted onto the QSV
// repertoire): once a shard's lock is contended, batching the backlog
// in one cache-warm pass beats handing the lock — and the data line —
// to every waiter in turn. Each thread runs a mixed op stream over a
// budget-scaled keyspace (defaults sized to millions of keys at the
// publication budget): 55% lookups, 20% upserts, 5% erases, 10% queue
// pushes, 10% queue pops. Per-op latency is sampled every 64th op and
// reported as p50/p95/p99 percentiles (stats.hpp); the striped
// accumulator is the live ops instrument, and queue conservation
// (IN - OUT == successful pushes - pops) is the integrity gate.
//
// The thread sweep intentionally oversubscribes small hosts up to 4
// threads (external watchdog, no pinning) so the ≥4-thread comparison
// is recorded everywhere; the verdict note states the host's CPU count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchreg/registry.hpp"
#include "benchreg/stats.hpp"
#include "combining/fc_executor.hpp"
#include "combining/fc_queue.hpp"
#include "combining/sharded_map.hpp"
#include "combining/striped_accumulator.hpp"
#include "harness/team.hpp"
#include "platform/rng.hpp"
#include "platform/timing.hpp"

namespace {

namespace br = qsv::benchreg;
namespace qc = qsv::combining;

struct MixRow {
  double mops = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  bool conserved = true;
};

/// One measured mix over freshly built structures. Map/Queue differ
/// only in their executor (FcExecutor vs PlainExecutor).
template <typename Map, typename Queue>
MixRow run_mix(std::size_t threads, double seconds, std::uint64_t keys,
               std::size_t shards, std::size_t ring) {
  Map map(shards, qsv::get_default_wait_policy());
  Queue queue(ring, qsv::get_default_wait_policy());
  map.reserve(keys);
  for (std::uint64_t k = 0; k < keys; ++k) {
    map.insert_or_assign(k, k);
  }

  qc::StripedAccumulator live_ops;
  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};
  std::vector<double> latencies;
  std::mutex lat_mu;

  br::DeadlineStop clock(seconds);
  // The sweep oversubscribes 1-CPU hosts: timer duty cannot sit on a
  // team member that may never be scheduled (run_lock_loop's rule).
  std::thread watchdog([&] {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9)));
    clock.request();
  });

  qsv::harness::ThreadTeam::run(
      threads,
      [&](std::size_t rank) {
        qsv::platform::Xoshiro256 rng(0x7a4c0ffee5eedULL + rank);
        std::uint64_t ops = 0;
        std::uint64_t my_pushed = 0;
        std::uint64_t my_popped = 0;
        // Lookups feed a checksum: a discarded find() through the plain
        // executor inlines into a lookup with no side effect, which the
        // compiler may delete.
        std::uint64_t found = 0;
        std::vector<double> lat;
        lat.reserve(8192);
        while (!clock.stop()) {
          const std::uint64_t r = rng.next();
          const std::uint32_t pct = static_cast<std::uint32_t>(r % 100);
          const std::uint64_t key = (r >> 32) % keys;
          const bool sampled = (ops & 63) == 0;
          const std::uint64_t t0 = sampled ? qsv::platform::now_ns() : 0;
          if (pct < 55) {
            std::uint64_t v;
            if (map.find(key, v)) found += v;
          } else if (pct < 75) {
            (void)map.insert_or_assign(key, r);
          } else if (pct < 80) {
            (void)map.erase(key);
          } else if (pct < 90) {
            if (queue.try_push(r)) ++my_pushed;
          } else {
            std::uint64_t v;
            if (queue.try_pop(v)) ++my_popped;
          }
          if (sampled) {
            lat.push_back(
                static_cast<double>(qsv::platform::now_ns() - t0));
          }
          ++ops;
          live_ops.add(1);
        }
        br::keep_alive(&found);
        total_ops.fetch_add(ops);
        pushed.fetch_add(my_pushed);
        popped.fetch_add(my_popped);
        std::lock_guard<std::mutex> g(lat_mu);
        latencies.insert(latencies.end(), lat.begin(), lat.end());
      });

  const std::uint64_t dt_ns = clock.elapsed_ns();
  watchdog.join();

  MixRow row;
  row.mops = br::mops(total_ops.load(), dt_ns);
  row.p50_us = br::percentile(latencies, 0.50) * 1e-3;
  row.p95_us = br::percentile(latencies, 0.95) * 1e-3;
  row.p99_us = br::percentile(latencies, 0.99) * 1e-3;
  // Conservation: every successful push/pop moved IN/OUT exactly once,
  // and the striped accumulator saw every op.
  row.conserved = queue.size() == pushed.load() - popped.load() &&
                  live_ops.read() ==
                      static_cast<std::int64_t>(total_ops.load());
  return row;
}

qsv::benchreg::Report run(const br::Params& params) {
  br::Report report;
  const double seconds = params.seconds(0.3);
  // Publication scale: 2M keys at the default 300ms budget; CI's small
  // budgets shrink the keyspace proportionally (floor 4096).
  std::uint64_t keys = params.scale_count(2'000'000, 300.0);
  if (keys < 4096) keys = 4096;
  const std::size_t shards = 4;  // few, hot shards: combining's regime
  const std::size_t ring = 4096;

  // Sweep to at least 4 threads even on small hosts — the comparison
  // the acceptance gate asks for — and beyond per --threads.
  std::vector<std::size_t> sweep;
  const std::size_t cap = std::max<std::size_t>(params.threads_or(4), 4);
  for (std::size_t t = 1; t <= cap; t *= 2) sweep.push_back(t);

  using FcMap = qc::ShardedMap<std::uint64_t, std::uint64_t>;
  using FcQueue = qc::FcMpmcQueue<std::uint64_t>;
  using PlainExec = qc::PlainExecutor<>;
  using PlainMap =
      qc::ShardedMap<std::uint64_t, std::uint64_t, PlainExec>;
  using PlainQueue = qc::FcMpmcQueue<std::uint64_t, PlainExec>;

  std::vector<double> fc_mops, plain_mops;
  for (std::size_t t : sweep) {
    const bool want_fc = params.algo_match("fc");
    const bool want_plain = params.algo_match("plain");
    if (want_fc) {
      const MixRow r =
          run_mix<FcMap, FcQueue>(t, seconds, keys, shards, ring);
      fc_mops.push_back(r.mops);
      report.add()
          .set("structure", "fc/map+queue")
          .set("threads", t)
          .set("mops", br::Value(r.mops, 2))
          .set("p50_us", br::Value(r.p50_us, 3))
          .set("p95_us", br::Value(r.p95_us, 3))
          .set("p99_us", br::Value(r.p99_us, 3));
      if (!r.conserved) report.fail("fc containers broke conservation");
    }
    if (want_plain) {
      const MixRow r =
          run_mix<PlainMap, PlainQueue>(t, seconds, keys, shards, ring);
      plain_mops.push_back(r.mops);
      report.add()
          .set("structure", "plain/map+queue")
          .set("threads", t)
          .set("mops", br::Value(r.mops, 2))
          .set("p50_us", br::Value(r.p50_us, 3))
          .set("p95_us", br::Value(r.p95_us, 3))
          .set("p99_us", br::Value(r.p99_us, 3));
      if (!r.conserved) report.fail("plain containers broke conservation");
    }
  }

  char note[256];
  std::snprintf(note, sizeof(note),
                "config: keys=%llu shards=%zu ring=%zu cpus=%zu",
                static_cast<unsigned long long>(keys), shards, ring,
                qsv::platform::available_cpus());
  report.note(note);

  if (fc_mops.size() == sweep.size() && plain_mops.size() == sweep.size()) {
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      if (sweep[i] < 4) continue;
      const double fc = fc_mops[i];
      const double plain = plain_mops[i];
      if (fc > plain) {
        std::snprintf(note, sizeof(note),
                      "verdict: fc beats plain handoff at %zu threads "
                      "(%.2f vs %.2f Mops, %.2fx)",
                      sweep[i], fc, plain, fc / plain);
      } else {
        std::snprintf(
            note, sizeof(note),
            "verdict: fc did not beat plain at %zu threads (%.2f vs "
            "%.2f Mops) on this %zu-CPU host — with no cross-core "
            "cache-line transfer to eliminate, combining has nothing "
            "to save; sweep recorded",
            sweep[i], fc, plain, qsv::platform::available_cpus());
      }
      report.note(note);
    }
  }
  return report;
}

br::Registrar reg{{
    .name = "containers",
    .id = "tab4",
    .kind = br::Kind::kTable,
    .title = "containers — mixed produce/consume/lookup, fc vs plain "
             "handoff",
    .claim = "flat-combined shards beat plain lock handoff once shards "
             "are contended (>=4 threads on multicore hosts)",
    .run = run,
}};

}  // namespace
