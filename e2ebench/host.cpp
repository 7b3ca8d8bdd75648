#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/stopwatch.hpp"

namespace qsmt::e2ebench {

namespace {

std::atomic<std::uint64_t> probe_sink{0};

/// A fixed amount of dependent integer work (~50 ms on a 2020s core).
void burn() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < 60'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe_sink.fetch_add(x, std::memory_order_relaxed);
}

double time_threads(std::size_t threads) {
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(burn);
  for (std::thread& worker : workers) worker.join();
  return timer.elapsed_seconds();
}

}  // namespace

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

HostProbe probe_host() {
  HostProbe probe;
  probe.cpus = online_cpus();
  // Best of three for each side: the probe asks what the host can
  // deliver, not how noisy one sample was.
  probe.one_thread_s = time_threads(1);
  probe.all_threads_s = time_threads(probe.cpus);
  for (int rep = 0; rep < 2; ++rep) {
    probe.one_thread_s = std::min(probe.one_thread_s, time_threads(1));
    probe.all_threads_s =
        std::min(probe.all_threads_s, time_threads(probe.cpus));
  }
  probe.effective_cores = static_cast<double>(probe.cpus) *
                          probe.one_thread_s / probe.all_threads_s;
  return probe;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal, in clock ticks.
  std::uint64_t ticks[8] = {};
  for (std::uint64_t& value : ticks) stat >> value;
  if (!stat) return 0.0;
  return static_cast<double>(ticks[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace qsmt::e2ebench
