// sharded_map.hpp — concurrent hash map: N independent shards, each a
// plain unordered_map served by its own delegation executor.
//
// Sharding spreads unrelated keys across independent locks; flat
// combining then attacks the contention that sharding cannot remove —
// hot shards (skewed keys, few shards, many threads), where the
// combiner applies the whole backlog of bucket operations while the
// shard's table is warm in its cache. The executor is a template
// parameter, so the per-shard lock is catalogue-chosen:
//
//   ShardedMap<K, V>                                   // FC over qsv::mutex
//   ShardedMap<K, V, PlainExecutor<core::QsvMutex>>    // handoff control
//   ShardedMap<K, V, FcExecutor<hier::CohortLock<...>>> // NUMA-cohort FC
//
// Operations are per-shard linearizable (each key lives in exactly one
// shard, and every operation on it runs under that shard's executor);
// size() is a quiescently-exact sum, like StripedAccumulator::read().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "combining/fc_executor.hpp"
#include "platform/arch.hpp"
#include "qsv/wait.hpp"

namespace qsv::combining {

template <typename K, typename V, typename Executor = FcExecutor<>,
          typename Hash = std::hash<K>>
class ShardedMap {
 public:
  static constexpr std::size_t kDefaultShards = 8;

  ShardedMap() : ShardedMap(kDefaultShards, qsv::get_default_wait_policy()) {}
  explicit ShardedMap(qsv::wait_policy policy)
      : ShardedMap(kDefaultShards, policy) {}
  ShardedMap(std::size_t shards, qsv::wait_policy policy) {
    const auto n = static_cast<std::size_t>(qsv::platform::next_pow2(
        static_cast<std::uint64_t>(shards == 0 ? 1 : shards)));
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>(policy));
    }
  }
  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  /// Insert or overwrite; returns true when the key was new.
  bool insert_or_assign(const K& key, V value) {
    bool inserted = false;
    Shard& s = shard_of(key);
    s.exec.run([&] {
      inserted = s.map.insert_or_assign(key, std::move(value)).second;
    });
    return inserted;
  }

  /// Copy the mapped value into `out`; returns true on a hit.
  bool find(const K& key, V& out) {
    bool hit = false;
    Shard& s = shard_of(key);
    s.exec.run([&] {
      auto it = s.map.find(key);
      if (it != s.map.end()) {
        out = it->second;
        hit = true;
      }
    });
    return hit;
  }

  /// Returns true when the key was present.
  bool erase(const K& key) {
    std::size_t n = 0;
    Shard& s = shard_of(key);
    s.exec.run([&] { n = s.map.erase(key); });
    return n != 0;
  }

  /// Sum of shard sizes; exact at quiescence.
  std::size_t size() {
    std::size_t total = 0;
    for (auto& s : shards_) {
      std::size_t n = 0;
      s->exec.run([&] { n = s->map.size(); });
      total += n;
    }
    return total;
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Pre-size every shard's table for ~`expected` total keys (bench
  /// setup: keeps rehashing out of the measured window).
  void reserve(std::size_t expected) {
    const std::size_t per = expected / shards_.size() + 1;
    for (auto& s : shards_) {
      s->exec.run([&] { s->map.reserve(per); });
    }
  }

  /// Aggregated combining counters across shards.
  typename Executor::Stats combine_stats() const {
    typename Executor::Stats total{};
    for (const auto& s : shards_) {
      const auto st = s->exec.stats();
      total.tenures += st.tenures;
      total.passes += st.passes;
      total.applied += st.applied;
    }
    return total;
  }

 private:
  // One allocation per shard: the executor's padded hot words and the
  // table never share a line with a sibling shard.
  struct Shard {
    explicit Shard(qsv::wait_policy policy) : exec(policy) {}
    Executor exec;
    std::unordered_map<K, V, Hash> map;
  };

  Shard& shard_of(const K& key) {
    return *shards_[hash_(key) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  Hash hash_;
};

}  // namespace qsv::combining
