// cache.hpp — cache-line aware storage helpers.
//
// The 1991 synchronization literature's central lesson is that *where a
// flag lives* matters as much as the algorithm: a waiter must spin on a
// location no other processor writes except to release it. These helpers
// make that property easy to state in types.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "platform/arch.hpp"

namespace qsv::platform {

/// A `T` padded out to its own cache-line pair so that arrays of
/// `Padded<T>` exhibit no false sharing between adjacent elements.
///
/// `Padded<T>` is the standard building block for "one slot per thread"
/// structures (Anderson lock slots, per-thread statistics, sense flags).
template <typename T>
struct alignas(kFalseSharingRange) Padded {
  T value{};

  Padded() = default;
  template <typename... Args>
  explicit Padded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(alignof(Padded<char>) == kFalseSharingRange);
static_assert(sizeof(Padded<char>) >= kFalseSharingRange);
// The padded counter words (stripes, per-thread tallies): one per line
// pair, so an array of them never puts two on one coherence unit.
static_assert(alignof(Padded<std::atomic<std::uint64_t>>) ==
              kFalseSharingRange);
static_assert(sizeof(Padded<std::atomic<std::uint64_t>>) %
                  kFalseSharingRange == 0);
static_assert(alignof(Padded<std::atomic<std::int64_t>>) ==
              kFalseSharingRange);
static_assert(sizeof(Padded<std::atomic<std::int64_t>>) >=
              kFalseSharingRange);

/// Fixed-size array of per-thread slots, each on its own line pair.
/// Allocated once at construction; never resized (resizing would move
/// slots out from under spinning threads).
template <typename T>
class PaddedArray {
 public:
  PaddedArray() = default;
  explicit PaddedArray(std::size_t n) : slots_(n) {}

  T& operator[](std::size_t i) noexcept { return slots_[i].value; }
  const T& operator[](std::size_t i) const noexcept { return slots_[i].value; }

  std::size_t size() const noexcept { return slots_.size(); }
  bool empty() const noexcept { return slots_.empty(); }

  /// Bytes consumed including padding: the "space cost" column of Table 2.
  std::size_t footprint_bytes() const noexcept {
    return slots_.size() * sizeof(Padded<T>);
  }

 private:
  std::vector<Padded<T>> slots_;
};

/// Deleter for make_line_aligned(): destroys the object and frees its
/// storage with the alignment it was allocated with (a plain delete
/// would pair an aligned operator new with an unaligned delete).
template <typename T>
struct LineAlignedDelete {
  void operator()(T* p) const noexcept {
    p->~T();
    ::operator delete(p, std::align_val_t{kFalseSharingRange});
  }
};

/// Heap storage aligned to `kFalseSharingRange`, for structures whose
/// first member is a hot atomic (locks, barrier hubs). Returns a
/// unique_ptr whose deleter calls operator delete with alignment.
template <typename T, typename... Args>
std::unique_ptr<T, LineAlignedDelete<T>> make_line_aligned(Args&&... args) {
  static_assert(alignof(T) <= kFalseSharingRange,
                "type requires stricter alignment than line pair");
  void* mem = ::operator new(sizeof(T), std::align_val_t{kFalseSharingRange});
  try {
    return std::unique_ptr<T, LineAlignedDelete<T>>(
        new (mem) T(std::forward<Args>(args)...));
  } catch (...) {
    ::operator delete(mem, std::align_val_t{kFalseSharingRange});
    throw;
  }
}

}  // namespace qsv::platform
