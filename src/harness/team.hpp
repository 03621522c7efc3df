// team.hpp — thread teams with aligned start.
//
// Every figure in the evaluation runs a fixed team of threads through the
// same loop. ThreadTeam pins member i to processor i when the team fits
// the host, lines all members up on a start barrier so measurement
// begins simultaneously, and joins with exception propagation.
#pragma once

#include <atomic>
#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/affinity.hpp"

namespace qsv::harness {

class ThreadTeam {
 public:
  /// Runs `body(rank)` on `n` threads, all released together after
  /// every member is placed and warmed. A team that fits
  /// platform::available_cpus() gets a CPU per member; a larger one is
  /// left to the scheduler, which can move a waiter off a busy CPU
  /// instead of stacking two threads on one. Blocks until all bodies
  /// return; rethrows the first member exception, if any.
  static void run(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
    const bool pin = n <= qsv::platform::available_cpus();
    std::barrier<> start(static_cast<std::ptrdiff_t>(n));
    std::vector<std::thread> members;
    members.reserve(n);
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;

    for (std::size_t rank = 0; rank < n; ++rank) {
      members.emplace_back([&, rank] {
        if (pin) (void)qsv::platform::pin_to_cpu(rank);
        start.arrive_and_wait();
        try {
          body(rank);
        } catch (...) {
          std::lock_guard<std::mutex> g(error_mu);
          if (!failed.exchange(true)) first_error = std::current_exception();
        }
      });
    }
    for (auto& t : members) t.join();
    if (failed.load()) std::rethrow_exception(first_error);
  }
};

}  // namespace qsv::harness
