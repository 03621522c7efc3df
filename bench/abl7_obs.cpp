// abl7_obs — Ablation A7: the cost of the observability spine.
//
// The BENCH_obs gate: a lock with a live telemetry record must stay
// within noise of the same lock constructed unobserved
// (set_enabled(false) around construction, same binary), on two arms:
//   * hot  — one lock cycled in cache (tab1's kernel);
//   * cold — 2^16 locks, far beyond L2, each locked and unlocked in a
//     seeded random order: the many-locks shape where every cycle
//     misses, so an extra line per cycle shows at full price.
// The gate is tight — 1.25x ratio OR 5 ns absolute, per arm — and a
// breach fails the scenario (CI validates the emitted artifact). Each
// round builds both sides in one fresh storage, one after the other,
// so they run at the same addresses; rounds alternate which side goes
// first, and the gate takes the median of the per-round ratios (see
// Arm), so drift hits both sides alike. Within one build this prices
// registration only: a lock constructed disabled runs the same
// uncontended instructions (its tallies tick either way). The
// instrumentation's own cost — no extra line and no extra RMW per
// uncontended cycle — is gated by tools/obs_gate.py, which times these
// telemetry=on rows against a -DQSV_OBS=OFF build of this scenario.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "benchreg/kernels.hpp"
#include "benchreg/registry.hpp"
#include "benchreg/stats.hpp"
#include "core/qsv_mutex.hpp"
#include "obs/hook.hpp"
#include "platform/rng.hpp"

namespace {

/// The gate: within 1.25x or within 5 ns of the unobserved lock.
constexpr double kGateRatio = 1.25;
constexpr double kGateNs = 5.0;

/// Storage for `count` locks and a seeded order to visit them in. Each
/// cycle_ns() call builds the locks in this storage, observed or not
/// (the master switch is consulted at construction only), times them
/// and tears them down, so the two sides of a round run at the same
/// addresses: cache-set, TLB and 4-KiB-alias effects — which move even
/// one hot lock's cycle by more than the gate allows — hit both alike.
class LockSet {
 public:
  using Lock = qsv::core::QsvMutex;

  explicit LockSet(std::size_t count)
      : storage_(std::make_unique<Slot[]>(count)), order_(count) {
    std::iota(order_.begin(), order_.end(), 0u);
    qsv::platform::SplitMix64 rng(0xab17);
    for (std::size_t i = count - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng.next() % (i + 1)]);
    }
  }

  /// ns per lock/unlock cycle over freshly built locks, visiting them in
  /// the seeded order after one untimed warm-up sweep.
  double cycle_ns(bool observed, double budget_ms) {
    const std::size_t count = order_.size();
    qsv::obs::set_enabled(observed);
    for (std::size_t i = 0; i < count; ++i) new (&storage_[i]) Lock();
    qsv::obs::set_enabled(true);
    std::size_t next = 0;
    const std::size_t mask = count - 1;
    const auto cycle = [&] {
      Lock& lock = at(order_[next++ & mask]);
      lock.lock();
      qsv::benchreg::keep_alive(&lock);
      lock.unlock();
    };
    for (std::size_t i = 0; i < std::max<std::size_t>(count, 4096); ++i) {
      cycle();
    }
    const double ns = qsv::benchreg::ns_per_op(cycle, 1, budget_ms);
    for (std::size_t i = 0; i < count; ++i) at(i).~Lock();
    return ns;
  }

 private:
  struct alignas(Lock) Slot {
    unsigned char bytes[sizeof(Lock)];
  };

  Lock& at(std::size_t i) {
    return *std::launder(reinterpret_cast<Lock*>(&storage_[i]));
  }

  std::unique_ptr<Slot[]> storage_;
  std::vector<std::uint32_t> order_;
};

/// An arm's two sides (medians of the rounds) and the gate's inputs:
/// the medians of the per-round ratio and difference. Each round times
/// both sides back to back, so a shift in the host's speed between
/// rounds — common on a shared machine, where even two identical
/// sides' medians can differ by more than the gate allows — cancels
/// within the round.
struct Arm {
  double on_ns = 0.0;
  double off_ns = 0.0;
  double ratio = 1.0;
  double overhead_ns = 0.0;
};

/// Observed and unobserved builds of `count` locks, timed in
/// alternating rounds (which side goes first alternates too). Each
/// round allocates fresh storage: where a process's pages land puts
/// 2^16 locks in a faster or a slower mode, so fresh pages per round
/// make an arm's median a sample over placements, not one draw.
Arm measure_arm(std::size_t count, std::size_t rounds, double budget_ms) {
  std::vector<double> on, off, ratio, overhead;
  for (std::size_t r = 0; r < rounds; ++r) {
    LockSet set(count);
    const bool observed_first = r % 2 == 0;
    const double first = set.cycle_ns(observed_first, budget_ms);
    const double second = set.cycle_ns(!observed_first, budget_ms);
    on.push_back(observed_first ? first : second);
    off.push_back(observed_first ? second : first);
    ratio.push_back(off.back() > 0.0 ? on.back() / off.back() : 1.0);
    overhead.push_back(on.back() - off.back());
  }
  return {qsv::benchreg::median(on), qsv::benchreg::median(off),
          qsv::benchreg::median(ratio), qsv::benchreg::median(overhead)};
}

qsv::benchreg::Report run(const qsv::benchreg::Params& params) {
  qsv::benchreg::Report report;
  const double budget_ms = params.budget_ms > 0.0 ? params.budget_ms : 20.0;
  const std::size_t rounds = std::max<std::size_t>(params.reps, 9);

  // Telemetry-on vs telemetry-off uncontended cycles. Under
  // -DQSV_OBS=0 both sides compile to the same unobserved cycle and the
  // gate is trivially green.
  const struct {
    const char* name;
    std::size_t locks;
  } arms[] = {{"hot", 1}, {"cold", std::size_t{1} << 16}};
  std::string breached;
  for (const auto& a : arms) {
    const Arm m = measure_arm(a.locks, rounds, budget_ms);
    const std::string arm = a.name;
    for (const bool observed : {true, false}) {
      const std::string op =
          std::string(observed ? "telemetry=on/" : "telemetry=off/") + arm;
      if (!params.algo_match(op)) continue;
      report.add()
          .set("op", op)
          .set("locks", a.locks)
          .set("rounds", rounds)
          .set("ns_per_op",
               qsv::benchreg::Value(observed ? m.on_ns : m.off_ns, 1));
    }
    const bool within_noise =
        m.ratio <= kGateRatio || m.overhead_ns <= kGateNs;
    report.add()
        .set("op", "overhead-gate/" + arm)
        .set("overhead_ns", qsv::benchreg::Value(m.overhead_ns, 1))
        .set("ratio", qsv::benchreg::Value(m.ratio, 2))
        .set("within_noise", within_noise ? "yes" : "no");
    if (!within_noise) breached += breached.empty() ? arm : ", " + arm;
  }
  if (!breached.empty()) {
    report.fail("telemetry overhead gate (" + breached +
                "): on-path exceeds 1.25x off-path and 5 ns absolute");
  }
  return report;
}

qsv::benchreg::Registrar reg{{
    .name = "obs",
    .id = "abl7",
    .kind = qsv::benchreg::Kind::kAblation,
    .title = "telemetry overhead gate",
    .claim = "per-instance telemetry is within 1.25x or 5 ns of an "
             "unobserved lock, one hot lock or 2^16 cold ones",
    .run = run,
}};

}  // namespace
