// Reproduces Fig. 11 of the paper: the full application suite on eight
// concurrent VPs, comparing
//   (blue bar)   software GPU emulation on the VPs,
//   (red line)   ΣVP host-GPU multiplexing, and
//   (green line) ΣVP plus the two optimizations (Kernel Interleaving with
//                asynchronous reordering + Kernel Coalescing).
// The paper reports multiplexing speedups of 622x–2045x and optimized
// speedups of 1098x–6304x over the emulation baseline.
//
// The 60 scenario runs (20 apps x 3 configurations) are independent design
// points, so they are sharded across host cores by the sweep runner:
//   fig11_suite [--workers N] [--json PATH]
// Results are bit-identical for every N (each job owns its private event
// queue); only the host wall-clock changes.

#include <iostream>

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::size_t kNumVps = 8;

run::SweepJob make_job(const workloads::Workload& w, Backend backend, bool optimized,
                       const std::string& variant) {
  run::SweepJob job;
  job.name = w.app + "/" + variant;
  job.group = w.app;
  job.config.backend = backend;
  job.config.mode = ExecMode::kAnalytic;
  if (optimized) {
    job.config.dispatch.interleave = true;
    job.config.dispatch.coalesce = true;
    job.config.dispatch.coalesce_eager_peers = kNumVps - 1;
    job.config.async_launches = true;
  }
  job.apps = replicate(w, w.default_n, kNumVps);
  return job;
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli = bench::parse_sweep_cli_or_exit(argc, argv, "BENCH_fig11_suite.json");
  std::cout << "== Fig. 11: GPU emulation on 8 VPs vs SigmaVP multiplexing, "
            << "per application ==\n\n";

  const auto suite = workloads::make_suite();
  std::vector<run::SweepJob> jobs;
  for (const auto& w : suite) {
    jobs.push_back(make_job(w, Backend::kEmulationOnVp, false, "emul"));
    jobs.push_back(make_job(w, Backend::kSigmaVp, false, "plain"));
    jobs.push_back(make_job(w, Backend::kSigmaVp, true, "opt"));
  }

  const run::SweepRunner runner(cli.workers);
  const run::SweepResult sweep = runner.run(jobs);

  TablePrinter t({"Application", "Emulation (s)", "Multiplexed (ms)", "Speedup",
                  "Optimized (ms)", "Speedup(opt)", "Opt gain"});
  RunningStats plain_speedups, opt_speedups;
  for (const auto& w : suite) {
    const ScenarioResult& emul = sweep.find(w.app + "/emul").result;
    const ScenarioResult& plain = sweep.find(w.app + "/plain").result;
    const ScenarioResult& opt = sweep.find(w.app + "/opt").result;

    const double sp_plain = sweep.speedup(w.app + "/plain", w.app + "/emul");
    const double sp_opt = sweep.speedup(w.app + "/opt", w.app + "/emul");
    plain_speedups.add(sp_plain);
    opt_speedups.add(sp_opt);

    t.add_row({w.app, fmt_fixed(s_from_us(emul.makespan_us), 1),
               fmt_fixed(ms_from_us(plain.makespan_us), 1), fmt_fixed(sp_plain, 0),
               fmt_fixed(ms_from_us(opt.makespan_us), 1), fmt_fixed(sp_opt, 0),
               fmt_ratio(sp_opt / sp_plain)});
  }
  t.print(std::cout);

  std::cout << "\nMultiplexing speedup range: " << fmt_fixed(plain_speedups.min(), 0) << "x - "
            << fmt_fixed(plain_speedups.max(), 0) << "x (paper: 622x - 2045x)\n";
  std::cout << "Optimized speedup range:    " << fmt_fixed(opt_speedups.min(), 0) << "x - "
            << fmt_fixed(opt_speedups.max(), 0) << "x (paper: 1098x - 6304x)\n";
  std::cout << "\nPer the paper's analysis: FP-light apps (SobelFilter, stereoDisparity,\n"
            << "mergeSort, VolumeFiltering) and OpenGL/file-I/O-heavy apps (simpleGL,\n"
            << "marchingCubes, smokeParticles, ...) sit at the low end; the\n"
            << "optimizations barely move convolutionSeparable, dct8x8, SobelFilter,\n"
            << "MonteCarlo, nbody and smokeParticles (memory/layout-bound kernels).\n";

  if (!try_write_sweep_json(sweep, "fig11_suite", cli.json_path)) return 1;
  std::cout << "\n[sweep] " << sweep.jobs.size() << " scenarios on " << sweep.workers
            << " workers in " << fmt_fixed(sweep.wall_ms, 0) << " ms -> " << cli.json_path
            << "\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
