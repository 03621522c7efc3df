// qsvlint-fixture: src/eventcount/good_withdraw.hpp
// Must-stay-quiet: the same withdraw and grant with acquire failure
// orders; relaxed retry loops, which re-read and retry; and a relaxed
// lock-word CAS, whose loser recycles only its own unpublished node.
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
  std::uint32_t now = count_.load(std::memory_order_acquire);
  if (now >= target) {
    std::uint32_t expected = kWaiting;
    // acquire on failure: a lost withdraw synchronizes with the grant.
    if (n->state.compare_exchange_strong(expected, kAbandoned,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return now;
    }
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
    // acquire on failure: a lost grant synchronizes with the abandon.
    if (list->state.compare_exchange_strong(expected, kGranted,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return;
    } else {
      arena.release(list);
    }
  }
}

inline void push(std::atomic<Node*>& head_word, Node* n) {
  // relaxed: head sample; the CAS validates it (failure order too).
  Node* head = head_word.load(std::memory_order_relaxed);
  do {
    n->next.store(head, std::memory_order_relaxed);  // relaxed: as above
  } while (!head_word.compare_exchange_weak(head, n,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
}

inline void bump_state(Node* n) {
  // relaxed: sample; the retry loop re-reads on failure.
  std::uint32_t s = n->state.load(std::memory_order_relaxed);
  // relaxed: both orders — a counter that nothing is published under.
  while (!n->state.compare_exchange_weak(s, s + 1, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
  }
}

inline bool try_push(std::atomic<Node*>& tail_, Node* n) {
  Node* expected = nullptr;
  // relaxed: failure order — n was never published.
  if (tail_.compare_exchange_strong(expected, n, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    return true;
  }
  recycle(n);
  return false;
}

}  // namespace qsv::eventcount
