// task.hpp — coroutine type for simulated processors.
//
// Each simulated processor executes one `sim::Task` coroutine. Memory
// operations are awaitables supplied by sim::Machine: the coroutine
// suspends at every access and the discrete-event engine resumes it when
// the access completes, so protocol code reads almost exactly like its
// real-hardware counterpart (compare protocols.cpp with core/qsv_mutex.hpp).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace qsv::sim {

class Task {
 public:
  struct promise_type {
    /// Parent coroutine to resume when this task finishes; set when a
    /// Task is co_awaited inside another Task (protocol subroutines,
    /// e.g. the hierarchical lock's release-global step). Null for
    /// top-level tasks driven by the machine.
    std::coroutine_handle<> continuation;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    // Lazy start: the machine (or the awaiting parent) schedules the
    // first resume itself.
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Keep the frame alive after completion (the owner destroys it);
    // hand control back to the awaiting parent if there is one.
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }
  std::coroutine_handle<promise_type> handle() const { return handle_; }

  // ---- awaitable: run as a subroutine of another Task -----------------
  // `co_await subprotocol(...)` starts the child immediately (symmetric
  // transfer) and resumes the parent when the child returns. The child's
  // frame is owned by the awaited temporary, which lives until the await
  // expression completes.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace qsv::sim
