// Reproduces Fig. 12 of the paper: normalized execution times of four
// kernels on the target GPU (Tegra K1) — the observation on the host GPU,
// the observation on the target, and the three estimates C, C', C'' of the
// Profile-Based Execution Analysis — using execution profiles from both
// host GPUs (Quadro 4000 and Grid K520).
//
// Each (host arch, app) cell is an independent functional evaluation with
// its own address space, so the 8 cells are sharded across host cores with
// parallel_for; rows land in indexed slots and the printed tables are
// byte-identical for any worker count. --workers N is the parallel_for width.

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

struct Cell {
  double h_norm = 0.0;       // host time / observed target time
  double c_norm = 0.0;       // estimate C, normalized
  double c1_norm = 0.0;      // estimate C'
  double c2_norm = 0.0;      // estimate C''
  double t_obs_us = 0.0;     // observed target time (for the error summary)
  double et_c2_us = 0.0;     // C'' estimate in us
};

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli = bench::parse_sweep_cli_or_exit(argc, argv, "");
  const auto suite = workloads::make_suite();
  const GpuArch target = make_tegrak1();
  const std::vector<const char*> apps = {"BlackScholes", "matrixMul", "dct8x8",
                                         "Mandelbrot"};
  const std::vector<GpuArch> hosts = {make_quadro4000(), make_gridk520()};

  // One cell per (host, app) pair, filled in parallel.
  std::vector<Cell> cells(hosts.size() * apps.size());
  run::parallel_for(cells.size(), cli.workers, [&](std::size_t idx) {
    const GpuArch& host = hosts[idx / apps.size()];
    const workloads::Workload& w = workloads::find(suite, apps[idx % apps.size()]);
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

    // Normalize by the observed target execution time (paper's y-axis).
    Cell& cell = cells[idx];
    cell.t_obs_us = us_from_cycles(on_target.stats.total_cycles, target.clock_ghz);
    cell.h_norm =
        us_from_cycles(on_host.stats.total_cycles, host.clock_ghz) / cell.t_obs_us;
    cell.c_norm = ts.et_c_us / cell.t_obs_us;
    cell.c1_norm = ts.et_c1_us / cell.t_obs_us;
    cell.c2_norm = ts.et_c2_us / cell.t_obs_us;
    cell.et_c2_us = ts.et_c2_us;
  });

  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const GpuArch& host = hosts[h];
    std::cout << "== Fig. 12: normalized execution times, profile host = " << host.name
              << ", target = Tegra K1 ==\n"
              << "   (all values divided by the observed target-device time)\n\n";
    TablePrinter t({"Kernel", "H(" + host.name + ")", "T(Tegra)", "C", "C'", "C''"});
    std::vector<double> observed, est_c2;
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const Cell& cell = cells[h * apps.size() + a];
      observed.push_back(cell.t_obs_us);
      est_c2.push_back(cell.et_c2_us);
      t.add_row({apps[a], fmt_fixed(cell.h_norm, 3), "1.000", fmt_fixed(cell.c_norm, 2),
                 fmt_fixed(cell.c1_norm, 2), fmt_fixed(cell.c2_norm, 2)});
    }
    t.print(std::cout);
    std::cout << "C'' mean abs error vs observed target: "
              << fmt_fixed(100.0 * mean_abs_pct_error(observed, est_c2), 1) << "%\n\n";
  }

  std::cout << "(As in the paper: host executions are far faster than the target;\n"
            << " the refined estimates cluster near 1.0 regardless of which host\n"
            << " GPU supplied the profile; C — the bare IPC-ratio model — is the\n"
            << " crudest of the three.)\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
