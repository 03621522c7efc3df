// qsvlint-fixture: src/eventcount/bad_withdraw.hpp
// Must-fire: QueuedEventCount::await()'s withdraw as it stood when its
// failure order was relaxed. A lost withdraw means a walker granted
// the node, and the waiter falls through as granted and recycles it;
// the relaxed failure never synchronized with the grant, so the
// walker's read of `target` raced with the node's next await(). Also
// the walker's side of the same node: a lost grant recycles the node.
#include <atomic>
#include <cstdint>

namespace qsv::eventcount {

struct Node {
  std::atomic<Node*> next{nullptr};
  std::atomic<std::uint32_t> state{0};
  std::uint32_t target = 0;
};

void recycle(Node* n);
void wait_for_grant(Node* n);

inline constexpr std::uint32_t kWaiting = 0;
inline constexpr std::uint32_t kGranted = 1;
inline constexpr std::uint32_t kAbandoned = 2;

inline std::uint32_t await_tail(std::atomic<std::uint32_t>& count_,
                                Node* n, std::uint32_t target) {
  struct {
    void release(Node* node) { recycle(node); }
  } arena;
  std::uint32_t now = 0;
    now = count_.load(std::memory_order_acquire);
    if (now >= target) {
      std::uint32_t expected = kWaiting;
      // relaxed: failure order — a lost withdraw means we were granted;
      // the grant CAS's acq_rel already ordered everything we read.
      if (n->state.compare_exchange_strong(expected, kAbandoned,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        // Withdrawn: the node stays in the stack and the next advance
        // drops it (and owns returning it to the arena).
        return now;
      }
      // CAS lost to a concurrent grant — fall through as granted.
    } else {
      wait_for_grant(n);
    }
  const std::uint32_t seen = count_.load(std::memory_order_acquire);
  arena.release(n);
  return seen;
}

inline void grant(Node* list, std::uint32_t now) {
  struct {
    void release(Node* node) { recycle(node); }
  } arena;
  if (list->target <= now) {
    std::uint32_t expected = kWaiting;
    // relaxed: failure order — failure means the waiter abandoned;
    // the corpse is recycled without reading through it.
    if (list->state.compare_exchange_strong(expected, kGranted,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      return;
    } else {
      arena.release(list);
    }
  }
}

}  // namespace qsv::eventcount
