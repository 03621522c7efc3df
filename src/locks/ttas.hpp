// ttas.hpp — test-and-test-and-set lock with pluggable backoff.
//
// The classic fix to TAS: poll with plain loads (shared cache-line state,
// no bus traffic while the lock is held) and attempt the exchange only on
// observing it free. With capped exponential backoff this was the best
// *non-queue* lock of the era and is the main rival of the queue locks in
// experiments F1/F6/A3.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "obs/hook.hpp"
#include "platform/arch.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"

namespace qsv::locks {

template <typename Backoff = qsv::platform::ExponentialBackoff>
class TtasLock {
 public:
  TtasLock() noexcept : TtasLock(Backoff{}) {}
  explicit TtasLock(Backoff proto) : backoff_proto_(proto) {
    rec_.enroll(name(), this, &qsv::obs::read_member<&TtasLock::tally_>);
  }
  TtasLock(const TtasLock&) = delete;
  TtasLock& operator=(const TtasLock&) = delete;
  ~TtasLock() { rec_.retire(); }  // unregister before the tallies die

  void lock() noexcept {
    Backoff backoff = backoff_proto_;
    bool waited = false;
    std::uint64_t t0 = 0;
    for (;;) {
      // Read-only poll phase: stays in cache until the holder releases.
      // relaxed: poll only; the winning exchange is the acquire.
      while (flag_.load(std::memory_order_relaxed) != 0) {
        if (!waited) {
          waited = true;
          t0 = rec_.wait_begin_ns();
        }
        qsv::platform::cpu_relax();
      }
      if (flag_.exchange(1, std::memory_order_acquire) == 0) {
        if (waited) {
          rec_.count_contended_acquire(t0);
        } else {
          tally_.count_acquire();
        }
        return;
      }
      backoff();  // lost the race to another poller: back off
    }
  }

  bool try_lock() noexcept {
    // relaxed: pre-check to avoid a doomed RMW; the acquire exchange
    // is the entry point.
    if (flag_.load(std::memory_order_relaxed) == 0 &&
        flag_.exchange(1, std::memory_order_acquire) == 0) {
      tally_.count_acquire();
      return true;
    }
    return false;
  }

  void unlock() noexcept {
    rec_.note_release();
    flag_.store(0, std::memory_order_release);
  }

  /// The catalogue row's name: "ttas" for the no-backoff floor.
  static constexpr const char* name() noexcept {
    return std::is_same_v<Backoff, qsv::platform::NoBackoff> ? "ttas"
                                                             : "ttas+backoff";
  }
  static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(std::atomic<std::uint32_t>);
  }

  /// This instance's registry record (null when telemetry is off).
  const qsv::obs::LockRec* telemetry() const noexcept { return rec_.get(); }

 private:
  /// Per-instance telemetry registration (obs/hook.hpp).
  [[no_unique_address]] qsv::obs::LockRec rec_;
  alignas(qsv::platform::kFalseSharingRange)
      std::atomic<std::uint32_t> flag_{0};
  /// Holder-owned tallies on flag_'s line.
  [[no_unique_address]] qsv::obs::Tally tally_;
  Backoff backoff_proto_{};
};

/// TTAS without backoff — the A3 ablation floor.
using TtasNoBackoffLock = TtasLock<qsv::platform::NoBackoff>;

}  // namespace qsv::locks
