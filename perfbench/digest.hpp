#pragma once

#include <cstdint>
#include <string>

#include "core/scenario.hpp"

namespace perfbench {

/// FNV-1a digest of a scenario's sim-domain result: makespan, per-app
/// completion times, scheduler / IPC / GPU / fault / fleet / multi-GPU
/// counters, the latency histogram and the app output bytes. Every field is
/// a pure function of the scenario's inputs, so the digest must be identical
/// at any shard or worker count and across repeated runs.
///
/// FleetStats::resident_bytes is left out: it is a host-memory estimate, not
/// simulated behaviour, and honest memory accounting is expected to change it.
/// The metrics registry is left out too: it exists only when collection is on.
std::uint64_t result_digest(const sigvp::ScenarioResult& r);

/// 16 lowercase hex digits.
std::string digest_hex(std::uint64_t digest);

}  // namespace perfbench
