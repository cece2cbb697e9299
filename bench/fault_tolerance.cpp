// Fault-tolerance bench: sweeps the deterministic fault-injection layer over
// the ΣVP host stack and reports what surviving the faults costs.
//
// Fault levels per application (8 VPs, plain and optimized dispatch):
//   clean    zero-fault plan — byte-identical to a run without the fault layer
//   lossy    5% message drop + 2% transient launch failure (the acceptance
//            scenario), plus duplications and latency spikes
//   reset    lossy + two mid-run device resets (at 250 ms and 750 ms of
//            simulated time) killing all in-flight jobs
//   stall    lossy + one VP that stops consuming completions (watchdog restart)
//   storm    35% drop — exhausts retry budgets and degrades VPs to the
//            EmulationDriver fallback (graceful degradation, run terminates)
//
// Every scenario must finish with zero unrecovered jobs; the bench exits
// nonzero otherwise (CI runs it as a smoke test). Scenarios are sharded with
//   fault_tolerance [--workers N] [--json PATH]
// and results are bit-identical for every N: all fault decisions hash
// (seed, site, index) — no wall clock, no cross-scenario state.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::size_t kNumVps = 8;

FaultConfig lossy_faults() {
  FaultConfig f;
  f.drop_rate = 0.05;
  f.dup_rate = 0.02;
  f.latency_spike_rate = 0.05;
  f.launch_fail_rate = 0.02;
  return f;
}

FaultConfig make_faults(const std::string& level) {
  if (level == "clean") return {};
  if (level == "lossy") return lossy_faults();
  if (level == "reset") {
    FaultConfig f = lossy_faults();
    f.device_reset_at_us = {250000.0, 750000.0};
    return f;
  }
  if (level == "stall") {
    FaultConfig f = lossy_faults();
    f.stall_vp = 2;
    return f;
  }
  // storm
  FaultConfig f = lossy_faults();
  f.drop_rate = 0.35;
  return f;
}

run::SweepJob make_job(const workloads::Workload& w, bool optimized,
                       const std::string& level) {
  run::SweepJob job;
  job.name = w.app + "/" + (optimized ? "opt" : "plain") + "/" + level;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  if (optimized) {
    job.config.dispatch.interleave = true;
    job.config.dispatch.coalesce = true;
    job.config.dispatch.coalesce_eager_peers = kNumVps - 1;
    job.config.async_launches = true;
  }
  job.config.fault = make_faults(level);
  job.apps = replicate(w, w.default_n, kNumVps);
  return job;
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli =
      bench::parse_sweep_cli_or_exit(argc, argv, "BENCH_fault_tolerance.json");
  std::cout << "== Fault tolerance: SigmaVP host stack under injected faults ==\n\n";

  const auto suite = workloads::make_suite();
  const std::vector<std::string> apps = {"vectorAdd", "matrixMul", "reduction"};
  const std::vector<std::string> levels = {"clean", "lossy", "reset", "stall", "storm"};

  std::vector<run::SweepJob> jobs;
  for (const auto& app : apps) {
    const workloads::Workload& w = workloads::find(suite, app);
    for (bool optimized : {false, true}) {
      for (const auto& level : levels) {
        jobs.push_back(make_job(w, optimized, level));
      }
    }
  }

  const run::SweepRunner runner(cli.workers);
  const run::SweepResult sweep = runner.run(jobs);

  TablePrinter t({"Scenario", "Makespan (ms)", "Overhead", "Drops", "Rexmit", "Resets",
                  "Requeue", "Fallback VPs", "Fallback jobs", "Rec mean (us)", "Lost"});
  std::uint64_t total_unrecovered = 0;
  for (const auto& app : apps) {
    for (const char* variant : {"plain", "opt"}) {
      const std::string base = app + "/" + variant + "/";
      const double clean_us = sweep.find(base + "clean").result.makespan_us;
      for (const auto& level : levels) {
        const ScenarioResult& r = sweep.find(base + level).result;
        const FaultStats& f = r.fault;
        total_unrecovered += f.unrecovered_jobs;
        t.add_row({base + level, fmt_fixed(ms_from_us(r.makespan_us), 2),
                   fmt_ratio(r.makespan_us / clean_us),
                   std::to_string(f.messages_dropped), std::to_string(f.retransmits),
                   std::to_string(f.device_resets), std::to_string(f.reset_requeues),
                   std::to_string(f.fallbacks), std::to_string(f.fallback_jobs),
                   fmt_fixed(f.recovery_latency_mean_us(), 1),
                   std::to_string(f.unrecovered_jobs)});
      }
    }
  }
  t.print(std::cout);

  if (!try_write_sweep_json(sweep, "fault_tolerance", cli.json_path)) return 1;
  std::cout << "\n[sweep] " << sweep.jobs.size() << " scenarios on " << sweep.workers
            << " workers in " << fmt_fixed(sweep.wall_ms, 0) << " ms -> " << cli.json_path
            << "\n";

  if (total_unrecovered != 0) {
    std::cerr << "FAULT-TOLERANCE FAILURE: " << total_unrecovered
              << " job(s) were lost for good\n";
    return 1;
  }
  std::cout << "All jobs recovered (0 lost) across every fault level.\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
