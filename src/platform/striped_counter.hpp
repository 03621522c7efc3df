// striped_counter.hpp — distributed reader indicator (a striped counter).
//
// A single shared counter turns every increment into an RMW on one hot
// cache line: P readers entering and leaving a lock generate O(P) remote
// references *each*, the invalidation storm the QSV mechanism exists to
// avoid. A StripedCounter splits the count across line-padded stripes
// selected by the calling thread's dense index, so the common-case
// increment/decrement is an RMW on a line shared only with the (few)
// threads that hash to the same stripe — with at least as many stripes as
// processors, a line the thread effectively owns.
//
// The cost is moved to the aggregating side: a reader of the total must
// walk all stripes. That is the right trade for reader-writer admission,
// where entries/exits are the hot path and the total is only needed at
// writer phase boundaries (cf. BRAVO's distributed reader indicators and
// SNZI's tree variant).
//
// `sum()` over concurrently moving stripes is not a snapshot. It is exact
// under the quiescing protocol the rwlock uses: once new increments are
// sealed off (writer-present gate), every active entry sits stably in the
// stripe it was counted into — entry and exit always touch the *same*
// stripe because a thread's index never changes — so a single pass that
// reads zero everywhere proves the count is drained.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "platform/arch.hpp"
#include "platform/cache.hpp"
#include "platform/thread_id.hpp"

namespace qsv::platform {

template <std::size_t kStripes = 16>
class StripedCounter {
  static_assert(is_pow2(kStripes), "stripe count must be a power of two");

 public:
  StripedCounter() = default;
  StripedCounter(const StripedCounter&) = delete;
  StripedCounter& operator=(const StripedCounter&) = delete;

  /// The calling thread's stripe. Stable for the thread's lifetime, so an
  /// increment here can always be undone on the same line later.
  std::atomic<std::int64_t>& slot() noexcept {
    return slots_[thread_index() & (kStripes - 1)].value;
  }

  /// Sharded add on the calling thread's stripe. seq_cst so the classic
  /// store-buffering handshake ("count myself in, then check the gate" vs
  /// "close the gate, then read the counts") cannot lose the increment.
  void add(std::int64_t delta) noexcept {
    slot().fetch_add(delta, std::memory_order_seq_cst);
  }

  /// One pass over all stripes. Exact only once stripe writers are
  /// quiesced (see file comment); `order` is applied to every stripe load.
  std::int64_t sum(std::memory_order order =
                       std::memory_order_acquire) const noexcept {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < kStripes; ++i) {
      total += slots_[i].value.load(order);
    }
    return total;
  }

  /// The same pass over a projection of each stripe word, for callers
  /// that pack more than one count into a stripe (QsvRwLock keeps its
  /// reader-entry tally above the active-reader count, so entry stays
  /// one RMW). Same exactness rule as sum().
  template <typename Field>
  std::int64_t sum(Field field, std::memory_order order) const noexcept {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < kStripes; ++i) {
      total += field(slots_[i].value.load(order));
    }
    return total;
  }

  static constexpr std::size_t stripes() noexcept { return kStripes; }

  /// Space cost including padding (Table 2 accounting).
  static constexpr std::size_t footprint_bytes() noexcept {
    return kStripes * sizeof(Padded<std::atomic<std::int64_t>>);
  }

 private:
  Padded<std::atomic<std::int64_t>> slots_[kStripes]{};
};

// One stripe per line pair: the whole point of striping.
static_assert(sizeof(StripedCounter<16>) >= 16 * kFalseSharingRange);

}  // namespace qsv::platform
