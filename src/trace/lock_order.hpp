// lock_order.hpp — the lock-acquisition-order hazard detector.
//
// The ROADMAP's observability layer calls for held-chain-driven
// lock-order-inversion warnings; this is that detector, and it is also
// one of the qsv::chk model checker's four property checkers. It keeps
// a process-wide directed graph over lock instances — edge A -> B means
// "some thread acquired B while holding A" — and reports a hazard the
// moment an acquisition would close a cycle: two locks taken in both
// orders is a deadlock waiting for the right interleaving, even if this
// run never deadlocks.
//
// Feeds:
//   * the per-thread held chain in platform/node_arena.hpp (every
//     node-based production lock: qsv and its mcs rows, qsv-timeout,
//     clh, the cohort tiers) —
//     indirectly, through the platform-owned hazard_hook seam that this
//     detector installs itself into on enable (platform/ must not
//     include trace/; qsvlint's layering rule enforces the direction),
//   * the chk checker's instrumented wrappers (every checked lock,
//     including non-node locks like tas/ticket). chk::check() keeps
//     the held-chain feed off while it explores, so a node-based row is
//     reported once, under the wrapper's name.
//
// Cost: one relaxed atomic load per acquisition when disabled (the
// default — this is an opt-in diagnostic, enabled by tests, by the chk
// battery, and by operators chasing a hang). When enabled, acquisitions
// take a global mutex and walk a graph that is small in any real
// program (one node per lock instance).
//
// Determinism: warning text contains registered lock names only — no
// pointers, no thread ids — so a replayed chk counterexample reproduces
// the identical warning bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

namespace qsv::trace {

namespace detail {
/// The enable flag, exposed so the per-acquisition fast path in
/// HeldList::push is a single inlined relaxed load.
extern std::atomic<bool> g_lock_order_enabled;
}  // namespace detail

/// Turn the detector on/off. Off discards no state: edges recorded
/// while on persist until lock_order_reset().
void lock_order_enable(bool on) noexcept;

/// Suppress the stderr print (warnings are still counted and readable
/// via lock_order_last_warning). The chk checker sets this during
/// exploration: it resets the graph per execution, so a hazard would
/// otherwise print once per execution that reaches it.
void lock_order_quiet(bool on) noexcept;

inline bool lock_order_enabled() noexcept {
  // relaxed: pure gate — a stale read only delays when tracking starts
  // or stops; the graph mutex orders all recorded data.
  return detail::g_lock_order_enabled.load(std::memory_order_relaxed);
}

/// Register a display name for a lock instance (warnings print names,
/// never addresses). Unnamed locks print as "?".
void lock_order_set_name(const void* lock, std::string_view name);

/// Record that the calling thread acquired `lock` (call after the
/// acquisition completes). Adds held -> lock edges for every lock the
/// thread already holds and emits a hazard warning to stderr — once per
/// lock pair — when an edge closes a cycle.
void lock_order_on_acquire(const void* lock);

/// Record that the calling thread released `lock`.
void lock_order_on_release(const void* lock);

struct LockOrderStats {
  std::size_t edges = 0;     ///< distinct ordered pairs observed
  std::size_t warnings = 0;  ///< inversions reported (one per pair)
};
LockOrderStats lock_order_stats();

/// The most recent warning's text ("" when none) — the queryable face
/// the tests and the chk reports read.
std::string lock_order_last_warning();

/// Drop all edges, names, warnings, and the calling thread's held
/// stack. (Other threads' held stacks empty naturally as they release.)
void lock_order_reset();

}  // namespace qsv::trace
