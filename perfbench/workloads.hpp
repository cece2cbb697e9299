#pragma once

// The benchmark's three workloads. Each is one long ΣVP scenario whose
// inputs are a pure function of the seed; the simulator receives only the
// generated ScenarioConfig and AppInstance list.
//
//   traffic     analytic, one domain, 2 GiB arena: open-loop Poisson request
//               streams over the three pipeline apps at ~0.7 of dispatcher
//               saturation (sim, ipc, sched per job; mem once).
//   fleet       analytic sharded fleet: light vectorAdd VPs over many
//               domains, 32 MiB arena each (core/fleet horizon sync,
//               per-domain dispatch). Timed at one shard thread, the
//               simulator's default; re-run at min(nproc, 4) shard threads
//               for the shard-invariance check and the shard speed-up.
//   functional  functional mode, closed loop, 2 GiB arena: Fig. 11 suite
//               apps interpreted on real data (interp, gpu/launch_cache).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

struct BenchWorkload {
  std::string name;
  /// Owns the app definitions; `apps` point into it, so it is filled once
  /// and never resized afterwards.
  std::vector<sigvp::workloads::Workload> suite;
  sigvp::ScenarioConfig config;
  std::vector<sigvp::AppInstance> apps;
  /// Open-loop requests offered in total (0 for closed-loop workloads).
  std::uint64_t offered_requests = 0;
  /// Shard threads of the shard-invariance re-run (1 = no re-run). Timed
  /// repetitions always advance the domains on one thread.
  std::size_t check_shards = 1;
  /// The benchmark's own set-up spans: kernel suite and IR construction,
  /// and request streams / arrival schedules / app instances.
  double suite_ms = 0.0;
  double streams_ms = 0.0;

  /// Device arenas the scenario allocates: domains x devices.
  std::uint64_t arena_count() const;
  /// Bytes those arenas declare in total.
  std::uint64_t arena_bytes() const { return arena_count() * config.gpu_mem_bytes; }
};

/// Workload names in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<BenchWorkload> build_workload(const std::string& name, std::uint64_t seed);

/// Seed-independent invariants of one result: every offered request
/// served, every app finished, percentiles monotone, per-workload
/// structural facts. Returns one message per violation (empty = holds).
std::vector<std::string> check_invariants(const BenchWorkload& w,
                                          const sigvp::ScenarioResult& r);

}  // namespace perfbench
