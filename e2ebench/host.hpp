// Host facts every result records: the measured parallel capacity and the
// process resource counters the end-to-end metrics are built from.
#pragma once

#include <cstddef>

namespace qsmt::e2ebench {

/// Effective parallel capacity: one CPU-bound thread timed alone, then
/// `cpus` copies of it timed together. A host that delivers every core
/// finishes both in the same time; one that delivers a single core takes
/// `cpus` times as long. hardware_concurrency() reports neither.
struct HostProbe {
  std::size_t cpus = 0;
  double one_thread_s = 0.0;
  double all_threads_s = 0.0;
  /// cpus * one_thread_s / all_threads_s, in cores.
  double effective_cores = 0.0;
};

/// CPUs this process may run on (its affinity mask).
std::size_t online_cpus();

HostProbe probe_host();

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();

/// CPU seconds the hypervisor has withheld from this machine's CPUs so far
/// (the steal column of /proc/stat, summed over CPUs); 0 where the kernel
/// does not report it.
double host_steal_seconds();

/// Peak resident set of the process, MiB.
double peak_rss_mib();

}  // namespace qsmt::e2ebench
