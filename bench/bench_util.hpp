#pragma once

// Shared helpers for the benches: flag-error handling for every bench main,
// and for the estimation-shaped benches (ablation_estimation, fig12_timing,
// fig13_power) one definition of "functionally evaluate a suite workload on
// an architecture" so the three tables are guaranteed to price identical
// executions.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gpu/offline.hpp"
#include "mem/allocator.hpp"
#include "run/sweep.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp::bench {

/// Runs `parse`, a bench's flag parsing, and returns its result. A malformed
/// number (the ContractError run::parse_number and run::parse_sweep_cli
/// throw) prints the error and a usage line and exits with status 2.
template <class Parse>
auto parse_flags_or_exit(char** argv, const char* usage, Parse&& parse) {
  try {
    return parse();
  } catch (const ContractError& e) {
    std::cerr << argv[0] << ": " << e.what() << "\nusage: " << argv[0] << ' ' << usage << '\n';
    std::exit(2);
  }
}

/// Flags run::parse_sweep_cli understands.
inline constexpr const char* kSweepUsage =
    "[--workers N] [--json PATH] [--trace PATH] [--shards N] [--snapshot-dir DIR] "
    "[--snapshot-every US] [--resume FILE]";

/// run::parse_sweep_cli for a sweep-shaped bench, exiting 2 on a malformed flag.
inline run::SweepCli parse_sweep_cli_or_exit(int argc, char** argv,
                                             const std::string& default_json) {
  const auto parse = [&] { return run::parse_sweep_cli(argc, argv, default_json); };
  return parse_flags_or_exit(argv, kSweepUsage, parse);
}

/// Allocates the workload's buffers in a fresh 512 MB address space, fills
/// every input buffer with the suite's canonical 0.75f pattern, and prices
/// one functional execution of the kernel at size `n` on `arch`.
///
/// Deliberately calls the plain evaluate_functional (not the launch cache):
/// these benches measure interpretation + estimation cost itself, and their
/// numbers must not depend on what some earlier bench left in a
/// process-wide cache.
inline LaunchEvaluation evaluate_workload_on(const workloads::Workload& w, std::uint64_t n,
                                             const GpuArch& arch) {
  AddressSpace mem(512ull * 1024 * 1024, "m");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  std::vector<std::uint64_t> addrs;
  const auto bufs = w.buffers(n);
  for (const auto& b : bufs) addrs.push_back(*alloc.allocate(b.bytes));
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    if (!bufs[i].is_input) continue;
    for (std::uint64_t off = 0; off + 4 <= bufs[i].bytes; off += 4) {
      mem.write<float>(addrs[i] + off, 0.75f);
    }
  }
  return evaluate_functional(arch, w.kernel, w.dims(n), w.args(addrs, n), mem);
}

}  // namespace sigvp::bench
