#pragma once

// Host-domain measurements the benchmark takes from outside the simulator:
// wall clock, process CPU and peak RSS (getrusage), and the host record
// printed beside every run's numbers.

#include <cstddef>
#include <string>

namespace perfbench {

/// Monotonic wall clock in seconds.
double wall_s();

/// User + system CPU seconds consumed by the whole process so far.
double process_cpu_s();

/// Peak resident set size of the process so far, in MiB (ru_maxrss).
double peak_rss_mb();

/// Effective parallelism of this host right now: `threads` spinning threads
/// each do the fixed amount of work one thread finishes in ~`burn_ms`; the
/// result is threads x t(1) / t(threads). A host that delivers every
/// reported core gives ~threads; a shared or throttled one gives less.
double effective_parallelism(std::size_t threads, double burn_ms);

/// Cores the OS reports (std::thread::hardware_concurrency, at least 1).
std::size_t host_cores();

/// Compiler identification of this build ("gcc 12.2.0", ...).
std::string compiler_id();

/// Build type and its optimisation flags, as configured by CMake.
std::string build_id();

/// Runs `fn` and returns its wall-clock duration in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const double t0 = wall_s();
  fn();
  return (wall_s() - t0) * 1e3;
}

}  // namespace perfbench
