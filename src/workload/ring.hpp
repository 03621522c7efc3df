// ring.hpp — bounded buffer built entirely from QSV primitives.
//
// The canonical producer/consumer substrate: two counting semaphores
// guard slots/items, a QSV mutex guards the ring indices. Exercises the
// mutex and semaphore together (integration tests and the pipeline
// example drive it).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/qsv_mutex.hpp"
#include "core/semaphore.hpp"

namespace qsv::workload {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity)
      : buffer_(capacity),
        slots_(static_cast<std::int64_t>(capacity)),
        items_(0) {}

  /// Blocks while the ring is full.
  void push(T value) {
    slots_.acquire();
    {
      qsv::core::QsvMutex& m = mutex_;
      m.lock();
      buffer_[tail_ % buffer_.size()] = std::move(value);
      ++tail_;
      m.unlock();
    }
    items_.release();
  }

  /// Blocks while the ring is empty.
  T pop() {
    items_.acquire();
    T out;
    {
      qsv::core::QsvMutex& m = mutex_;
      m.lock();
      out = std::move(buffer_[head_ % buffer_.size()]);
      ++head_;
      m.unlock();
    }
    slots_.release();
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    if (!items_.try_acquire()) return std::nullopt;
    T out;
    {
      mutex_.lock();
      out = std::move(buffer_[head_ % buffer_.size()]);
      ++head_;
      mutex_.unlock();
    }
    slots_.release();
    return out;
  }

  std::size_t capacity() const noexcept { return buffer_.size(); }

 private:
  std::vector<T> buffer_;
  qsv::core::QsvSemaphore slots_;
  qsv::core::QsvSemaphore items_;
  qsv::core::QsvMutex mutex_;
  std::size_t head_ = 0;  // guarded by mutex_
  std::size_t tail_ = 0;  // guarded by mutex_
};

}  // namespace qsv::workload
