#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sigvp::run {

/// Host hardware concurrency, never less than 1. A `width` of 0 means this.
std::size_t default_workers();

/// Runs `fn(0) ... fn(count-1)` on at most `width` host threads (0 =
/// `default_workers()`) and returns once every index has run.
///
/// This is the simulator's only source of host parallelism: sweep jobs,
/// fleet shards and interpreter chunks all come through here, onto one
/// lazily built process-wide worker pool. The simulation itself stays
/// single-threaded per domain; the pool only runs independent units of work.
///
/// The calling thread claims indices from a shared counter and runs them
/// itself. It also queues up to `min(width, count) - 1` helper tasks, but
/// never more than the pool has idle threads, so a region nested inside a
/// busy outer region (interpreter chunks inside a sweep job) runs inline and
/// thread counts never multiply. The caller waits only for indices some
/// thread has claimed and is running, never for a queued helper, which makes
/// nesting deadlock-free at any depth; a helper that starts after the counter
/// is exhausted returns without touching `fn`. The pool grows to the largest
/// `min(width, count) - 1` ever requested and never shrinks.
///
/// Results belong in caller-owned slots indexed by `i`. Every index runs even
/// if others throw; the exception of the lowest throwing index is rethrown
/// afterwards, so error reporting does not depend on scheduling.
void parallel_for(std::size_t count, std::size_t width,
                  const std::function<void(std::size_t)>& fn);

/// Counters of the process-wide pool (all zero before its first use).
struct PoolStats {
  std::size_t threads = 0;           ///< pool threads; only ever grows
  std::uint64_t helpers_queued = 0;  ///< helper tasks queued by parallel_for
  std::uint64_t late_helpers = 0;    ///< helpers that found no index left
};
PoolStats pool_stats();

/// Process-wide shard-execution knob (`--shards` / SIGVP_SHARDS): the
/// parallel_for width the fleet executor advances simulation domains with.
/// Execution-only — it never appears in a scenario fingerprint and never
/// changes a result byte; `FleetConfig::domains` is the semantic knob.
/// Default 1 (serial domain advancement).
void set_fleet_shards(std::size_t shards);
std::size_t fleet_shards();

}  // namespace sigvp::run
