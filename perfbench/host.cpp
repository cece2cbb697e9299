#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "perfbench_build_id.hpp"

namespace perfbench {
namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// One unit of calibration work: a xorshift step the optimiser cannot fold.
std::uint64_t spin(std::uint64_t x, std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<std::uint64_t> g_sink{0};

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double effective_parallelism(std::size_t threads, double burn_ms) {
  threads = std::max<std::size_t>(1, threads);
  // Size one thread's share of work to ~burn_ms on this host.
  constexpr std::uint64_t kChunk = 1u << 16;
  std::uint64_t steps = 0;
  std::uint64_t x = 88172645463325252ull;
  const double t0 = wall_s();
  double solo_s = 0.0;
  while ((solo_s = wall_s() - t0) * 1e3 < burn_ms) {
    x = spin(x, kChunk);
    steps += kChunk;
  }
  g_sink += x;

  const double t1 = wall_s();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([steps, i] { g_sink += spin(88172645463325252ull + i, steps); });
  }
  for (std::thread& t : pool) t.join();
  const double team_s = wall_s() - t1;
  return team_s > 0.0 ? static_cast<double>(threads) * solo_s / team_s : 0.0;
}

std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_id() { return PERFBENCH_BUILD_ID; }

}  // namespace perfbench
