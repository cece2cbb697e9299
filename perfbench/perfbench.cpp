// ΣVP benchmark binary: runs one named workload through the public
// run_scenario API in this process and reports host-domain metrics measured
// from outside the simulator (the benchmark's own spans, getrusage, and the
// public stats of LaunchCache, Tier2Engine, FleetStats and the trace
// metrics registry). Sim-domain results are checked, never reported as
// metrics: every run is digested and must pass the seed-independent
// invariants, and must match --expect-digest when one is given.
//
//   sigvp_perfbench --workload traffic|fleet|functional --seed N --seconds S
//                   --trace 0|1 [--expect-digest HEX16]
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 is the separate per-layer run: untraced baseline repetitions,
// one repetition with sim-domain metric collection (and, on `functional`,
// the process Tracer's interpreter-chunk spans), a 1-shard repeat of the
// fleet, and a replay of the workload's device-arena construction.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Exit status: 0 when every scenario passed its checks, 1 otherwise, 2 on a
// usage error.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "digest.hpp"
#include "gpu/launch_cache.hpp"
#include "host.hpp"
#include "interp/tier2.hpp"
#include "mem/address_space.hpp"
#include "run/thread_pool.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: sigvp_perfbench --workload traffic|fleet|functional --seed N --seconds S\n"
    "                       --trace 0|1 [--expect-digest HEX16]\n";

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 31;
/// Timed repetitions run until --seconds have elapsed, but at least this many.
constexpr int kMinTimedReps = 3;
constexpr int kMinBaselineReps = 2;
/// Sharded fleet repetitions of the traced run (shard speed-up, CPU inflation).
constexpr int kShardedReps = 3;
constexpr double kCalibrationBurnMs = 100.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::optional<std::uint64_t> expect_digest;
};

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_number(const std::string& flag, const std::string& text, int base,
                           std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (text.empty() || ec != std::errc() || ptr != end || v > max) {
    throw UsageError(flag + ": malformed or out-of-range value '" + text + "'");
  }
  return v;
}

Options parse_cli(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      std::exit(0);
    }
    if (i + 1 >= argc) throw UsageError(flag + ": missing value or unknown flag");
    const std::string value = argv[++i];
    auto once = [&flag](bool& seen) {
      if (seen) throw UsageError(flag + " given twice");
      seen = true;
    };
    if (flag == "--workload") {
      once(have_workload);
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        throw UsageError("--workload: unknown workload '" + value + "'");
      }
      o.workload = value;
    } else if (flag == "--seed") {
      once(have_seed);
      o.seed = parse_number(flag, value, 10, UINT64_MAX);
    } else if (flag == "--seconds") {
      once(have_seconds);
      o.seconds = parse_number(flag, value, 10, 3600);
      if (o.seconds == 0) throw UsageError("--seconds must be at least 1");
    } else if (flag == "--trace") {
      once(have_trace);
      o.trace = parse_number(flag, value, 10, 1) == 1;
    } else if (flag == "--expect-digest") {
      bool seen = o.expect_digest.has_value();
      once(seen);
      if (value.size() != 16) throw UsageError("--expect-digest takes 16 hex digits");
      o.expect_digest = parse_number(flag, value, 16, UINT64_MAX);
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw UsageError("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One run_scenario call as the benchmark saw it from outside.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  sigvp::ScenarioResult result;
};

/// Runs scenarios of one workload and judges every result; counts the
/// attempted and failed operations the final JSON reports.
class Runner {
 public:
  Runner(const Options& opt, const BenchWorkload& w) : opt_(opt), w_(w) {}

  /// One scenario with cold process-wide caches (a user's simulation
  /// process pays that warm-up on every run, so it is measured), with
  /// `shards` threads advancing a sharded fleet. Returns nullopt when it
  /// threw.
  std::optional<Rep> run(const std::string& label, std::size_t shards,
                         const std::function<void()>& before = {},
                         const std::function<void()>& after = {}) {
    sigvp::LaunchCache::instance().clear();
    sigvp::Tier2Engine::instance().reset();
    sigvp::run::set_fleet_shards(shards);
    ++attempted_;
    Rep rep;
    try {
      if (before) before();
      const double c0 = process_cpu_s();
      const double t0 = wall_s();
      rep.result = sigvp::run_scenario(w_.config, w_.apps);
      rep.wall_s = wall_s() - t0;
      rep.cpu_s = process_cpu_s() - c0;
      if (after) after();
    } catch (const std::exception& e) {
      if (after) after();
      fail(label, std::string("threw: ") + e.what());
      return std::nullopt;
    }
    judge(label, rep);
    return rep;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void judge(const std::string& label, const Rep& rep) {
    const std::uint64_t digest = result_digest(rep.result);
    std::vector<std::string> bad = check_invariants(w_, rep.result);
    if (!reference_) reference_ = digest;
    if (digest != *reference_) {
      bad.push_back("digest " + digest_hex(digest) + " differs from this run's first " +
                    digest_hex(*reference_));
    }
    if (opt_.expect_digest && digest != *opt_.expect_digest) {
      bad.push_back("digest " + digest_hex(digest) + " != expected " +
                    digest_hex(*opt_.expect_digest));
    }
    std::cout << label << ": wall " << rep.wall_s << " s, cpu " << rep.cpu_s << " s, jobs "
              << rep.result.jobs_dispatched << ", makespan " << rep.result.makespan_us
              << " us, digest " << digest_hex(digest) << "\n";
    if (bad.empty()) return;
    std::string all;
    for (const std::string& b : bad) all += (all.empty() ? "" : "; ") + b;
    fail(label, all);
  }

  void fail(const std::string& label, const std::string& why) {
    ++failed_;
    std::cerr << "FAIL " << opt_.workload << " " << label << ": " << why << "\n";
  }

  const Options& opt_;
  const BenchWorkload& w_;
  std::optional<std::uint64_t> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

/// Sum of the interpreter-chunk host spans (cat "interp" or "tier2", with a
/// "chunk" arg) the process Tracer recorded, in milliseconds.
double interp_busy_ms(const sigvp::trace::Tracer& tracer) {
  const std::string pid = "\"pid\":" + std::to_string(tracer.host_pid()) + ",";
  std::istringstream events(tracer.to_json());
  double busy_us = 0.0;
  for (std::string line; std::getline(events, line);) {
    if (line.find("{\"ph\":\"X\"," + pid) != 0) continue;
    if (line.find("\"args\":{\"chunk\":") == std::string::npos) continue;
    if (line.find("\"cat\":\"interp\"") == std::string::npos &&
        line.find("\"cat\":\"tier2\"") == std::string::npos) {
      continue;
    }
    const std::size_t at = line.find("\"dur\":");
    if (at != std::string::npos) busy_us += std::strtod(line.c_str() + at + 6, nullptr);
  }
  return busy_us / 1e3;
}

/// Builds the workload kSetupReps times; keeps the last build.
std::unique_ptr<BenchWorkload> set_up(const Options& opt, std::vector<double>& total_s,
                                      std::vector<double>& suite_ms,
                                      std::vector<double>& streams_ms) {
  std::unique_ptr<BenchWorkload> w;
  for (int i = 0; i < kSetupReps; ++i) {
    w.reset();
    const double t0 = wall_s();
    w = build_workload(opt.workload, opt.seed);
    total_s.push_back(wall_s() - t0);
    suite_ms.push_back(w->suite_ms);
    streams_ms.push_back(w->streams_ms);
  }
  return w;
}

/// Repeats `once` until --seconds of wall time have passed and at least
/// `min_reps` succeeded (or one failed: a failing scenario is not timed).
std::vector<Rep> repeat(const Options& opt, int min_reps,
                        const std::function<std::optional<Rep>(int)>& once) {
  std::vector<Rep> reps;
  const double t0 = wall_s();
  for (int i = 0;; ++i) {
    std::optional<Rep> rep = once(i);
    if (!rep) break;
    reps.push_back(std::move(*rep));
    if (static_cast<int>(reps.size()) >= min_reps &&
        wall_s() - t0 >= static_cast<double>(opt.seconds)) {
      break;
    }
  }
  return reps;
}

std::string shard_label(const BenchWorkload& w) {
  return "shard-invariance@" + std::to_string(w.check_shards);
}

std::vector<double> field(const std::vector<Rep>& reps, double (*get)(const Rep&)) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(get(r));
  return v;
}

std::vector<Metric> end_to_end(const Options& opt, BenchWorkload& w, Runner& runner,
                               const std::vector<double>& setup_s) {
  const std::vector<Rep> reps = repeat(opt, kMinTimedReps, [&](int i) {
    return runner.run("timed#" + std::to_string(i), 1);
  });
  if (w.check_shards > 1) runner.run(shard_label(w), w.check_shards);  // digest must match
  const double jobs_per_s = median(field(reps, [](const Rep& r) {
    return ratio(static_cast<double>(r.result.jobs_dispatched), r.wall_s);
  }));
  return {
      {"jobs_per_s", jobs_per_s, "jobs/s"},
      {"cpu_s", median(field(reps, [](const Rep& r) { return r.cpu_s; })), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_s), "s"},
  };
}

std::vector<Metric> per_layer(const Options& opt, BenchWorkload& w, Runner& runner,
                              const std::vector<double>& suite_ms,
                              const std::vector<double>& streams_ms) {
  namespace trace = sigvp::trace;
  const bool fleet = w.config.fleet.domains >= 2;
  const bool functional = w.config.mode == sigvp::ExecMode::kFunctional;

  // Untraced baseline: the benchmark's own span around each run_scenario.
  const std::vector<Rep> base = repeat(opt, kMinBaselineReps, [&](int i) {
    return runner.run("baseline#" + std::to_string(i), 1);
  });
  const double base_wall_s = median(field(base, [](const Rep& r) { return r.wall_s; }));
  const double base_cpu_s = median(field(base, [](const Rep& r) { return r.cpu_s; }));
  const std::uint64_t jobs = base.empty() ? 0 : base.front().result.jobs_dispatched;

  // Traced repetition: sim-domain metrics registry on; the process Tracer
  // (whose per-event cost is only affordable at functional's job count)
  // adds the interpreter-chunk host spans. The tracer is dropped before
  // exit, so nothing is written.
  sigvp::LaunchCacheStats cache0, cache1;
  sigvp::Tier2Stats tier0, tier1;
  double busy_ms = 0.0;
  const std::optional<Rep> traced = runner.run(
      "traced", 1,
      [&] {
        trace::set_metrics_forced(true);
        if (functional) trace::Tracer::enable(".perfbench-trace.json");
        cache0 = sigvp::LaunchCache::instance().stats();
        tier0 = sigvp::Tier2Engine::instance().stats();
      },
      [&] {
        cache1 = sigvp::LaunchCache::instance().stats();
        tier1 = sigvp::Tier2Engine::instance().stats();
        if (const trace::Tracer* t = trace::Tracer::active()) busy_ms = interp_busy_ms(*t);
        trace::Tracer::disable();
        trace::set_metrics_forced(false);
      });
  const sigvp::ScenarioResult empty;
  const sigvp::ScenarioResult& r = traced ? traced->result : empty;
  const sigvp::LaunchCacheStats cache = cache1 - cache0;
  const sigvp::Tier2Stats tier = tier1 - tier0;
  double queue_depth_max = 0.0;
  if (r.metrics) {
    const auto& gauges = r.metrics->gauges();
    if (const auto it = gauges.find("sched.queue_depth_max"); it != gauges.end()) {
      queue_depth_max = it->second.value;
    }
  }
  // Sharded runs keep per-domain cache shards; their counters land in FleetStats.
  const double hits = static_cast<double>(cache.hits + r.fleet.cache_hits);
  const double misses = static_cast<double>(cache.misses + r.fleet.cache_misses);
  const double bypasses = static_cast<double>(cache.bypasses);

  // The fleet at check_shards threads against the 1-thread baseline: shard
  // speed-up wall(1)/wall(N) and CPU inflation cpu(N)/cpu(1). Every run's
  // digest must equal the 1-thread digest (shard invariance).
  double shard_speedup = 0.0, cpu_inflation = 0.0;
  if (fleet) {
    std::vector<Rep> sharded;
    for (int i = 0; i < kShardedReps; ++i) {
      std::optional<Rep> rep =
          runner.run(shard_label(w) + "#" + std::to_string(i), w.check_shards);
      if (!rep) break;
      sharded.push_back(std::move(*rep));
    }
    if (!sharded.empty()) {
      shard_speedup =
          ratio(base_wall_s, median(field(sharded, [](const Rep& r) { return r.wall_s; })));
      cpu_inflation =
          ratio(median(field(sharded, [](const Rep& r) { return r.cpu_s; })), base_cpu_s);
    }
  }
  const double rss_mb = peak_rss_mb();
  const double resident_mb = static_cast<double>(r.fleet.resident_bytes) / (1024.0 * 1024.0);

  // Replay the scenario's arena construction through the public constructor.
  const double arena_init_ms = time_ms([&] {
    std::vector<std::unique_ptr<sigvp::AddressSpace>> arenas;
    for (std::uint64_t i = 0; i < w.arena_count(); ++i) {
      arenas.push_back(
          std::make_unique<sigvp::AddressSpace>(w.config.gpu_mem_bytes, "perfbench-arena"));
    }
  });

  const double traced_wall_s = traced ? traced->wall_s : 0.0;
  const double traced_cpu_s = traced ? traced->cpu_s : 0.0;
  return {
      {"setup.suite_ms", median(suite_ms), "ms"},
      {"setup.streams_ms", median(streams_ms), "ms"},
      {"mem.arena_mb", static_cast<double>(w.arena_bytes()) / (1024.0 * 1024.0), "MB"},
      {"mem.arena_init_ms", arena_init_ms, "ms"},
      {"core.run_scenario_ms", base_wall_s * 1e3, "ms"},
      {"core.host_us_per_job", ratio(base_wall_s * 1e6, static_cast<double>(jobs)), "us"},
      {"core.fleet.sync_rounds", static_cast<double>(r.fleet.sync_rounds), "count"},
      {"core.fleet.fabric_messages", static_cast<double>(r.fleet.fabric_messages), "count"},
      {"core.fleet.shard_speedup", shard_speedup, "x"},
      {"core.fleet.cpu_inflation", cpu_inflation, "x"},
      {"core.fleet.resident_mb", resident_mb, "MB"},
      {"core.fleet.rss_ratio", fleet ? ratio(rss_mb, resident_mb) : 0.0, "x"},
      {"ipc.messages", static_cast<double>(r.ipc_messages), "count"},
      {"sched.jobs_dispatched", static_cast<double>(r.jobs_dispatched), "count"},
      {"sched.reorders", static_cast<double>(r.reorders), "count"},
      {"sched.coalesced_groups", static_cast<double>(r.coalesced_groups), "count"},
      {"sched.coalesced_jobs", static_cast<double>(r.coalesced_jobs), "count"},
      {"sched.queue_depth_max", queue_depth_max, "count"},
      {"gpu.launch_cache.hits", hits, "count"},
      {"gpu.launch_cache.misses", misses, "count"},
      {"gpu.launch_cache.bypasses", bypasses, "count"},
      {"gpu.launch_cache.hit_ratio", ratio(hits, hits + misses + bypasses), "ratio"},
      {"gpu.launch_cache.bytes_replayed", static_cast<double>(cache.bytes_replayed), "bytes"},
      {"interp.tier1_launches", static_cast<double>(tier.launches_tier1), "count"},
      {"interp.tier2_launches", static_cast<double>(tier.launches_tier2), "count"},
      {"interp.warming_launches", static_cast<double>(tier.launches_warming), "count"},
      {"interp.tier2_compiles", static_cast<double>(tier.compiles), "count"},
      {"interp.busy_ms", busy_ms, "ms"},
      {"interp.busy_share", ratio(busy_ms / 1e3, traced_cpu_s), "ratio"},
      {"trace.overhead", ratio(traced_wall_s, base_wall_s), "x"},
  };
}

int run(const Options& opt) {
  // Host record, printed beside the numbers: results depend on host state.
  const std::size_t cores = host_cores();
  std::cout << "host: nproc " << cores << ", compiler " << compiler_id() << ", build "
            << build_id() << ", effective parallelism "
            << effective_parallelism(cores, kCalibrationBurnMs) << " of " << cores << "\n";

  std::vector<double> setup_s, suite_ms, streams_ms;
  std::unique_ptr<BenchWorkload> w = set_up(opt, setup_s, suite_ms, streams_ms);
  std::cout << "workload " << w->name << ": seed " << opt.seed << ", " << w->apps.size()
            << " VPs, " << w->arena_count() << " arena(s) of "
            << (w->config.gpu_mem_bytes >> 20) << " MiB";
  if (w->check_shards > 1) std::cout << ", shard check at " << w->check_shards << " threads";
  if (w->offered_requests > 0) std::cout << ", " << w->offered_requests << " requests";
  std::cout << "\n";

  Runner runner(opt, *w);
  const std::vector<Metric> metrics = opt.trace
                                          ? per_layer(opt, *w, runner, suite_ms, streams_ms)
                                          : end_to_end(opt, *w, runner, setup_s);

  for (const Metric& m : metrics) std::cout << m.name << " " << m.value << " " << m.unit << "\n";
  std::cout << "ops " << runner.attempted() << "\nops_failed " << runner.failed() << "\n";

  const bool correct = runner.failed() == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << runner.attempted() << ", \"failed\": " << runner.failed()
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = perfbench::parse_cli(argc, argv);
  } catch (const perfbench::UsageError& e) {
    std::cerr << "sigvp_perfbench: " << e.what() << "\n" << perfbench::kUsage;
    return 2;
  }
  return perfbench::run(opt);
}
