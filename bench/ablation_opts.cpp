// Ablation (ours, not in the paper): isolates the contribution of each
// optimization — Kernel Interleaving (with asynchronous reordering) and
// Kernel Coalescing — on representative apps from the suite.
//
// 6 apps x 4 configurations = 24 independent scenarios, sharded across host
// cores by the sweep runner (--workers N); results are identical for any N.

#include <iostream>

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::size_t kNumVps = 8;

run::SweepJob make_job(const workloads::Workload& w, const std::string& variant,
                       bool interleave, bool coalesce, bool async) {
  run::SweepJob job;
  job.name = w.app + "/" + variant;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  job.config.dispatch.interleave = interleave;
  job.config.dispatch.coalesce = coalesce;
  job.config.dispatch.coalesce_eager_peers = kNumVps - 1;
  job.config.async_launches = async;
  job.apps = replicate(w, w.default_n, kNumVps);
  return job;
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli = bench::parse_sweep_cli_or_exit(argc, argv, "BENCH_ablation_opts.json");
  std::cout << "== Ablation: per-optimization contribution (8 VPs, makespan in ms) ==\n\n";

  const auto suite = workloads::make_suite();
  const std::vector<const char*> apps = {"vectorAdd",  "BlackScholes",
                                         "mergeSort",  "matrixMul",
                                         "convolutionSeparable", "segmentationTreeThrust"};

  std::vector<run::SweepJob> jobs;
  for (const char* app : apps) {
    const workloads::Workload& w = workloads::find(suite, app);
    jobs.push_back(make_job(w, "none", false, false, false));
    jobs.push_back(make_job(w, "interleave", true, false, false));
    jobs.push_back(make_job(w, "coalesce", false, true, false));
    jobs.push_back(make_job(w, "both", true, true, true));
  }

  const run::SweepRunner runner(cli.workers);
  const run::SweepResult sweep = runner.run(jobs);

  TablePrinter t({"Application", "None", "+Interleave", "+Coalesce", "+Both+Async",
                  "Total gain", "Coalesced groups"});
  for (const char* app : apps) {
    const std::string name(app);
    const ScenarioResult& none = sweep.find(name + "/none").result;
    const ScenarioResult& inter = sweep.find(name + "/interleave").result;
    const ScenarioResult& coal = sweep.find(name + "/coalesce").result;
    const ScenarioResult& both = sweep.find(name + "/both").result;
    t.add_row({app, fmt_fixed(ms_from_us(none.makespan_us), 1),
               fmt_fixed(ms_from_us(inter.makespan_us), 1),
               fmt_fixed(ms_from_us(coal.makespan_us), 1),
               fmt_fixed(ms_from_us(both.makespan_us), 1),
               fmt_ratio(sweep.speedup(name + "/both", name + "/none")),
               fmt_int(static_cast<long long>(both.coalesced_groups))});
  }
  t.print(std::cout);
  std::cout << "\n(Apps the paper lists as not helped — convolutionSeparable among\n"
            << " them — show gains near 1.0x; kernel-cascade apps like mergeSort\n"
            << " gain the most, matching the paper's best case.)\n";

  if (!try_write_sweep_json(sweep, "ablation_opts", cli.json_path)) return 1;
  std::cout << "\n[sweep] " << sweep.jobs.size() << " scenarios on " << sweep.workers
            << " workers in " << fmt_fixed(sweep.wall_ms, 0) << " ms -> " << cli.json_path
            << "\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
