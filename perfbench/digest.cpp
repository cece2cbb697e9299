#include "digest.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  /// Doubles by bit pattern: byte identity, not numeric closeness.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t result_digest(const sigvp::ScenarioResult& r) {
  Fnv h;
  h.f64(r.makespan_us);
  h.u64(r.app_done_us.size());
  for (const double t : r.app_done_us) h.f64(t);

  h.u64(r.jobs_dispatched);
  h.u64(r.reorders);
  h.u64(r.coalesced_groups);
  h.u64(r.coalesced_jobs);
  h.u64(r.ipc_messages);
  h.f64(r.gpu_dynamic_energy_j);
  h.f64(r.gpu_compute_busy_us);
  h.f64(r.gpu_copy_busy_us);
  h.u64(r.fault.active ? 1 : 0);
  h.u64(r.fault.unrecovered_jobs);

  const sigvp::FleetStats& f = r.fleet;
  h.u64(f.domains);
  h.f64(f.lookahead_us);
  h.u64(f.sync_rounds);
  h.u64(f.fabric_messages);
  h.u64(f.fabric_hops);
  h.f64(f.fleet_done_us);
  h.u64(f.cache_hits);
  h.u64(f.cache_misses);

  h.u64(r.gpus.devices);
  h.u64(r.gpus.migrations);
  h.u64(r.gpus.migrated_bytes);

  const sigvp::trace::Histogram& lat = r.latency;
  h.u64(r.requests_completed);
  h.u64(lat.count);
  for (const std::uint64_t c : lat.counts) h.u64(c);
  h.f64(lat.sum);
  h.f64(lat.min);
  h.f64(lat.max);

  h.u64(r.app_outputs.size());
  for (const std::vector<std::uint8_t>& out : r.app_outputs) {
    h.u64(out.size());
    h.bytes(out.data(), out.size());
  }
  return h.value();
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
