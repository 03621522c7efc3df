// node_arena.hpp — node management shared by the queue-based primitives.
//
// MCS and CLH need one queue node per (thread, held lock). Exposing nodes
// in the public API is error-prone, so the locks draw nodes from a
// per-thread cache backed by a global arena, and each thread chains the
// nodes of the locks it holds through the nodes themselves (HeldList).
// Nodes may migrate between threads (CLH adoption), so ultimate
// ownership rests with the arena, which lives until process exit.
//
// Fast paths: the arena fronts its per-thread vector cache with a
// single-slot cache, so the uncontended lock/unlock cycle — acquire one
// node, release one node — performs no vector operation and no
// allocation in steady state, and finds its node at the chain's head.
//
// Nodes released by one thread and acquired by another (a writer
// recycling withdrawn QsvRwLock reader nodes while the reader draws
// fresh ones) must flow back: the per-thread cache is capped, spills
// its overflow to a central free list under the arena mutex, and
// acquire() drains that list before it allocates. An exiting thread
// spills its whole cache the same way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "platform/cache.hpp"
#include "platform/hazard_hook.hpp"

namespace qsv::platform {

namespace detail {
/// Contract violations in the node layer (an unmatched unlock) corrupt
/// the queue protocols if allowed to continue; abort deterministically
/// in every build mode rather than fall into UB.
[[noreturn]] inline void node_fatal(const char* what) noexcept {
  std::fprintf(stderr, "libqsv node layer: %s\n", what);
  std::abort();
}
}  // namespace detail

/// Global allocator of line-aligned nodes of type `Node`. Allocation hits
/// the central mutex only when a thread's local caches are empty; steady
/// state is allocation-free. Nodes live until process exit, which makes
/// cross-thread node migration (CLH) safe by construction.
template <typename Node>
class NodeArena {
 public:
  /// Nodes a thread's vector cache keeps; beyond this, half of it
  /// spills to the central free list (one mutex hop per kLocalCap / 2
  /// releases), and a refill takes up to half of it back.
  static constexpr std::size_t kLocalCap = 64;

  /// The process-wide arena. Never destroyed: threads that exit during
  /// static teardown can still spill their caches into it, and its
  /// nodes stay mapped until the process ends.
  static NodeArena& instance() {
    static NodeArena* arena = new NodeArena();
    return *arena;
  }

  /// Get a node: single-slot fast cache, then the thread's vector cache,
  /// then the central free list, then a fresh allocation.
  Node* acquire() {
    Node*& fast = fast_slot();
    if (fast != nullptr) {
      Node* n = fast;
      fast = nullptr;
      return n;
    }
    auto& cache = local_cache().nodes;
    if (cache.empty()) {
      std::lock_guard<std::mutex> g(mu_);
      if (free_.empty()) {
        storage_.push_back(std::make_unique<Padded<Node>>());
        return &storage_.back()->value;
      }
      // Refill with up to half a cache's worth of spilled nodes.
      const std::size_t n = std::min(free_.size(), kLocalCap / 2);
      cache.insert(cache.end(), free_.end() - static_cast<std::ptrdiff_t>(n),
                   free_.end());
      free_.resize(free_.size() - n);
    }
    Node* n = cache.back();
    cache.pop_back();
    return n;
  }

  /// Return a node to the calling thread's caches. The single slot takes
  /// it when empty (the common un-nested case); overflow goes to the
  /// vector, and a full vector spills half of itself centrally.
  void release(Node* n) {
    Node*& fast = fast_slot();
    if (fast == nullptr) {
      fast = n;
      return;
    }
    auto& cache = local_cache().nodes;
    if (cache.size() >= kLocalCap) spill(cache, kLocalCap / 2);
    cache.push_back(n);
  }

  /// Total nodes ever created (space accounting for Table 2).
  std::size_t allocated() const {
    std::lock_guard<std::mutex> g(mu_);
    return storage_.size();
  }

 private:
  NodeArena() = default;

  /// The thread's vector cache; on thread exit it hands every node it
  /// holds (the fast slot's included) back to the central list.
  struct LocalCache {
    std::vector<Node*> nodes;
    ~LocalCache() {
      Node*& fast = fast_slot();
      if (fast != nullptr) {
        nodes.push_back(fast);
        fast = nullptr;
      }
      instance().spill(nodes, 0);
    }
  };

  static Node*& fast_slot() {
    thread_local Node* slot = nullptr;
    return slot;
  }

  static LocalCache& local_cache() {
    thread_local LocalCache cache;
    return cache;
  }

  /// Move all but `keep` of `cache`'s nodes to the central free list.
  void spill(std::vector<Node*>& cache, std::size_t keep) {
    if (cache.size() <= keep) return;
    std::lock_guard<std::mutex> g(mu_);
    free_.insert(free_.end(),
                 cache.begin() + static_cast<std::ptrdiff_t>(keep), cache.end());
    cache.resize(keep);
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Padded<Node>>> storage_;
  /// Spilled nodes, ready for any thread's acquire().
  std::vector<Node*> free_;
};

/// The calling thread's holds of one node type, chained through the
/// held nodes themselves. `Node` carries two owner-private fields:
/// `held_lock`, the lock instance it was enqueued on, and `held_next`,
/// the thread's next older hold. The chain costs one thread_local
/// pointer per node type and has no depth limit. An unlock in LIFO
/// order finds its node at the head; any other order walks the chain
/// and rewrites one newer hold's `held_next` (in a CLH-style node, a
/// line that hold's successor polls).
///
/// Doubles as the hazard detectors' production feed: every node-based
/// lock reports its acquisitions and releases through the
/// platform-owned hazard_hook seam (one relaxed load when no detector
/// is enabled, the default). The lock-order-inversion detector in
/// src/trace/ installs itself there — platform/ never includes upward.
template <typename Node>
class HeldList {
 public:
  /// Prepare `n` to record an acquisition of `lock`. Call while `n` is
  /// still private, before the RMW that publishes it, so recording a
  /// hold never writes a line a waiter polls.
  static void stamp(Node* n, const void* lock) noexcept {
    n->held_lock = lock;
    n->held_next = head();
  }

  /// Record the stamped acquisition once it has succeeded.
  static void push(Node* n) {
    head() = n;
    if (hazard_hook::enabled()) hazard_hook::on_acquire(n->held_lock);
  }

  /// Unlink and return the calling thread's node for `lock`; aborts
  /// when the thread does not hold `lock`.
  static Node* pop(const void* lock) {
    Node** link = &head();
    for (Node* n = *link; n != nullptr; link = &n->held_next, n = *link) {
      if (n->held_lock == lock) {
        *link = n->held_next;
        if (hazard_hook::enabled()) hazard_hook::on_release(lock);
        return n;
      }
    }
    detail::node_fatal("unlock of a lock this thread does not hold");
  }

 private:
  static Node*& head() noexcept {
    thread_local Node* newest = nullptr;
    return newest;
  }
};

}  // namespace qsv::platform
