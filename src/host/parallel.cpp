#include "host/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace sensmart::host {

unsigned effective_jobs(unsigned requested, std::size_t n_items) {
  unsigned jobs = requested;
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (n_items < jobs) jobs = static_cast<unsigned>(n_items);
  return jobs == 0 ? 1u : jobs;
}

void sweep_indexed(std::size_t n, unsigned jobs,
                   const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        // Keep draining: abandoning the cursor mid-sweep would leave
        // unfilled result slots for items that never threw.
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs - 1);
  for (unsigned t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker 0
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sensmart::host
