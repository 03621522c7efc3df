// lock_order.cpp — lock-acquisition-order graph and inversion warnings.
#include "trace/lock_order.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "obs/hook.hpp"
#include "platform/hazard_hook.hpp"

namespace qsv::trace {

namespace detail {
std::atomic<bool> g_lock_order_enabled{false};
}  // namespace detail

namespace {
std::atomic<bool> g_quiet{false};
}  // namespace

namespace {

/// Everything below the enable flag lives behind one mutex: the
/// detector is a cold diagnostic, not a fast path.
struct Graph {
  std::mutex mu;
  std::map<const void*, std::string> names;
  /// Ordered-pair edge set: (a, b) = "b acquired while a held".
  std::set<std::pair<const void*, const void*>> edges;
  /// Adjacency view of `edges` for the cycle walk.
  std::map<const void*, std::vector<const void*>> succ;
  /// Pairs already reported (unordered canonical form), so a hazard is
  /// one warning, not one per re-occurrence.
  std::set<std::pair<const void*, const void*>> warned;
  std::size_t warnings = 0;
  std::string last_warning;
};

Graph& graph() {
  static Graph* g = new Graph();  // leaked: usable during late TLS teardown
  return *g;
}

/// The calling thread's currently-held locks, acquisition order.
std::vector<const void*>& held() {
  thread_local std::vector<const void*> t;
  return t;
}

std::string name_of(const Graph& g, const void* lock) {
  auto it = g.names.find(lock);
  return it == g.names.end() ? std::string("?") : it->second;
}

/// Is `to` reachable from `from` over the edge graph? Iterative DFS;
/// the graph has one node per lock instance, so this is tiny.
bool reachable(const Graph& g, const void* from, const void* to) {
  std::vector<const void*> stack{from};
  std::set<const void*> seen;
  while (!stack.empty()) {
    const void* n = stack.back();
    stack.pop_back();
    if (n == to) return true;
    if (!seen.insert(n).second) continue;
    auto it = g.succ.find(n);
    if (it == g.succ.end()) continue;
    for (const void* s : it->second) stack.push_back(s);
  }
  return false;
}

}  // namespace

void lock_order_enable(bool on) noexcept {
  // The held-chain production feed reaches us through the platform-owned
  // hazard_hook seam (platform/ cannot include trace/); publish the
  // callbacks before the enable flag so a feed that observes "enabled"
  // finds them installed.
  if (on) {
    platform::hazard_hook::install(&lock_order_on_acquire,
                                   &lock_order_on_release);
  }
  platform::hazard_hook::set_enabled(on);
  // relaxed: the flag is a pure gate consulted by the detector's own
  // entry points; edges recorded under the graph mutex carry their own
  // ordering.
  detail::g_lock_order_enabled.store(on, std::memory_order_relaxed);
}

void lock_order_quiet(bool on) noexcept {
  // relaxed: diagnostic verbosity toggle; no data is published under it.
  g_quiet.store(on, std::memory_order_relaxed);
}

void lock_order_set_name(const void* lock, std::string_view name) {
  Graph& g = graph();
  std::lock_guard<std::mutex> guard(g.mu);
  g.names[lock] = std::string(name);
}

void lock_order_on_acquire(const void* lock) {
  if (!lock_order_enabled()) return;
  std::vector<const void*>& h = held();
  Graph& g = graph();
  {
    std::lock_guard<std::mutex> guard(g.mu);
    for (const void* prior : h) {
      if (prior == lock) continue;  // recursive re-entry: no self edge
      if (!g.edges.insert({prior, lock}).second) continue;
      g.succ[prior].push_back(lock);
      // New edge prior -> lock. If lock already reaches prior, the two
      // participate in a cycle: both orders have been observed.
      if (reachable(g, lock, prior)) {
        auto canon = std::minmax(prior, lock);
        if (g.warned.insert({canon.first, canon.second}).second) {
          g.last_warning = "lock-order inversion: acquired \"" +
                           name_of(g, lock) + "\" while holding \"" +
                           name_of(g, prior) +
                           "\", but the reverse order (\"" +
                           name_of(g, lock) + "\" before \"" +
                           name_of(g, prior) + "\") was observed earlier";
          ++g.warnings;
          // Every inversion lands in the telemetry registry's hazard
          // log — the `hazards` face of the introspection endpoint —
          // regardless of verbosity; quiet only mutes stderr.
          qsv::obs::record_hazard(g.last_warning);
          // relaxed: verbosity toggle (see lock_order_quiet).
          if (!g_quiet.load(std::memory_order_relaxed)) {
            std::fprintf(stderr, "libqsv hazard: %s\n",
                         g.last_warning.c_str());
          }
        }
      }
    }
  }
  h.push_back(lock);
}

void lock_order_on_release(const void* lock) {
  if (!lock_order_enabled()) return;
  std::vector<const void*>& h = held();
  // Release order may not mirror acquisition order; erase the most
  // recent matching entry.
  for (std::size_t i = h.size(); i-- > 0;) {
    if (h[i] == lock) {
      h.erase(h.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  // Held entry absent: the lock was acquired while the detector was
  // off, or adopted from another thread (cohort hold transfer). Benign.
}

LockOrderStats lock_order_stats() {
  Graph& g = graph();
  std::lock_guard<std::mutex> guard(g.mu);
  return {g.edges.size(), g.warnings};
}

std::string lock_order_last_warning() {
  Graph& g = graph();
  std::lock_guard<std::mutex> guard(g.mu);
  return g.last_warning;
}

void lock_order_reset() {
  Graph& g = graph();
  std::lock_guard<std::mutex> guard(g.mu);
  g.names.clear();
  g.edges.clear();
  g.succ.clear();
  g.warned.clear();
  g.warnings = 0;
  g.last_warning.clear();
  held().clear();
}

}  // namespace qsv::trace
