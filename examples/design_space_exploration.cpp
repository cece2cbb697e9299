// Design-space exploration: the paper's §4 use case. Profile a kernel ONCE
// on the host GPU, then — without ever executing on the candidates —
// estimate execution time and power for a family of embedded-GPU designs
// (varying SM count and clock around the Tegra K1 baseline) using
// Profile-Based Execution Analysis.
//
// The profiling run happens once, serially; the per-candidate estimations
// are independent and fan out across host cores with parallel_for
// of width --workers N. Rows land in indexed slots, so the table
// is identical for any worker count.

#include <cstdio>
#include <vector>

#include "estimate/estimator.hpp"
#include "gpu/offline.hpp"
#include "mem/allocator.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli = run::parse_sweep_cli(argc, argv, "");
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "BlackScholes");
  const std::uint64_t n = w.estimate_n ? w.estimate_n : w.test_n;
  const GpuArch host = make_quadro4000();

  // --- step 1-2 (paper Fig. 7): run once on the host GPU and profile it ------
  AddressSpace mem(512ull * 1024 * 1024, "m");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  std::vector<std::uint64_t> addrs;
  const auto bufs = w.buffers(n);
  for (const auto& b : bufs) addrs.push_back(*alloc.allocate(b.bytes));
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    if (!bufs[i].is_input) continue;
    for (std::uint64_t off = 0; off + 4 <= bufs[i].bytes; off += 4) {
      mem.write<float>(addrs[i] + off, 0.6f);
    }
  }
  const LaunchEvaluation profiled =
      evaluate_functional(host, w.kernel, w.dims(n), w.args(addrs, n), mem);
  std::printf("Profiled %s (%llu elems) once on %s: %llu instructions, %.0f cycles\n\n",
              w.app.c_str(), static_cast<unsigned long long>(n), host.name.c_str(),
              static_cast<unsigned long long>(profiled.stats.sigma.total()),
              profiled.stats.total_cycles);

  // --- steps 3-5: estimate over the embedded-GPU design space ----------------
  struct Candidate {
    const char* name;
    std::uint32_t sms;
    double clock;
  };
  const std::vector<Candidate> candidates = {{"K1-lowpower", 1, 0.60},
                                             {"K1-baseline", 1, 0.85},
                                             {"K1-boost", 1, 1.00},
                                             {"2xSMX", 2, 0.85},
                                             {"4xSMX-halfclock", 4, 0.45}};
  struct Estimate {
    double time_ms = 0.0;
    double power_w = 0.0;
    double energy_mj = 0.0;
  };
  std::vector<Estimate> estimates(candidates.size());
  run::parallel_for(candidates.size(), cli.workers, [&](std::size_t idx) {
    const Candidate& cand = candidates[idx];
    GpuArch target = make_tegrak1();
    target.name = cand.name;
    target.num_sms = cand.sms;
    target.clock_ghz = cand.clock;
    // Static power scales with area (SM count); dynamic energy per
    // instruction is voltage/frequency dependent — first-order model.
    target.static_power_w *= cand.sms;

    ProfileBasedEstimator est(host, target);
    EstimationInput in;
    in.kernel = &w.kernel;
    in.dims = w.dims(n);
    in.lambda = profiled.profile.block_visits;
    in.host_stats = profiled.stats;
    in.behavior = w.behavior(n);
    const TimingEstimates timing = est.estimate_time(in);
    const double power = est.estimate_power_w(in, timing);
    estimates[idx] = Estimate{ms_from_us(timing.et_c2_us), power,
                              power * s_from_us(timing.et_c2_us) * 1e3};
  });

  TablePrinter t({"Candidate", "SMs", "Clock (GHz)", "Est. time (ms)", "Est. power (W)",
                  "Energy (mJ)"});
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    t.add_row({candidates[i].name, fmt_int(candidates[i].sms),
               fmt_fixed(candidates[i].clock, 2), fmt_fixed(estimates[i].time_ms, 3),
               fmt_fixed(estimates[i].power_w, 2), fmt_fixed(estimates[i].energy_mj, 3)});
  }
  std::printf("Estimated execution on candidate embedded GPUs (C'' model):\n\n");
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nNo candidate was ever executed: every row derives from the single\n"
              "host-GPU profile plus per-ISA compilation info — the paper's key\n"
              "productivity claim for simulation-driven design-space exploration.\n");
  return 0;
}
