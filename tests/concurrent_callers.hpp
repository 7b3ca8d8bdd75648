// Concurrent-caller harness for the determinism tests. The SolveService
// pool is the only parallelism: each worker runs whole sampler calls on its
// own thread, reusing that thread's AnnealContext. A fixed-seed call must
// therefore give the same bytes whether it runs alone or next to others.
#pragma once

#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

namespace qsmt {

/// Runs `call()` on `threads` threads released together and returns the
/// results in thread order.
template <typename Call>
auto run_concurrently(Call call, std::size_t threads = 4) {
  std::vector<decltype(call())> results(threads);
  std::latch start(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> callers;
  callers.reserve(threads);
  for (auto& result : results) {
    callers.emplace_back([&call, &result, &start] {
      start.arrive_and_wait();
      result = call();
    });
  }
  for (auto& caller : callers) caller.join();
  return results;
}

}  // namespace qsmt
