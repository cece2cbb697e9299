// Measures the Tier-2 threaded-code engine (DESIGN.md §15) against the
// Tier-1 interpreter: per-kernel Minstr/s Tier-1-forced vs tiered across the
// full Fig. 11 workload suite plus the app-pipeline stages, with promotion
// and fusion counts alongside.
//
//   tier_throughput [--n SIZE] [--reps R] [--json PATH] [--trace PATH]
//
// Every tiered run is differenced against the Tier-1 profile AND the final
// memory image (full-space hash) — any mismatch makes the bench exit
// nonzero, so the speedup numbers can never outlive the byte-exactness
// contract they advertise. Promotion bookkeeping (promoted flag, compiles,
// fused superinstructions per kernel) is a pure function of the launch
// stream; scripts/bench_regression_check.py compares it exactly.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "interp/interpreter.hpp"
#include "interp/tier2.hpp"
#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kSpace = 256ull * 1024 * 1024;

/// One kernel to bench: a suite workload, or one stage of an app pipeline
/// (which reuses the owning workload's buffer set).
struct BenchUnit {
  std::string app;
  std::string kernel_name;
  const KernelIR* kernel = nullptr;
  std::uint64_t n = 0;
  LaunchDims dims;
  std::function<KernelArgs(const std::vector<std::uint64_t>& addrs)> args;
  const workloads::Workload* buffers_of = nullptr;  // whose buffers(n) to allocate
};

struct UnitResult {
  std::string app;
  std::string kernel;
  std::uint64_t n = 0;
  std::uint64_t instrs = 0;
  bool promoted = false;
  std::uint64_t compiles = 0;
  std::uint64_t fused = 0;
  double t1_minstr_s = 0.0;
  double t2_minstr_s = 0.0;
  double speedup = 0.0;
};

/// One launch on fresh memory; returns the profile, the post-run full-space
/// memory hash, and the wall-clock of the `run` call alone.
DynamicProfile one_run(const BenchUnit& u, double& wall_ms, std::uint64_t& mem_hash) {
  AddressSpace mem(kSpace, "bench");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  const auto specs = u.buffers_of->buffers(u.n);
  std::vector<std::uint64_t> addrs;
  std::vector<std::vector<std::uint8_t>> host(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto a = alloc.allocate(specs[i].bytes);
    SIGVP_REQUIRE(a.has_value(), u.app + ": bench arena too small for n");
    addrs.push_back(*a);
    host[i].assign(specs[i].bytes, 0);
  }
  // Real input data when the workload provides it (pipeline stages read
  // indices/weights from memory); flat 0.5f fill otherwise.
  if (u.buffers_of->fill_inputs) {
    u.buffers_of->fill_inputs(u.n, host);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!specs[i].is_input) continue;
      for (std::uint64_t off = 0; off + 4 <= specs[i].bytes; off += 4) {
        const float v = 0.5f;
        std::memcpy(host[i].data() + off, &v, 4);
      }
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].is_input) mem.copy_in(addrs[i], host[i].data(), host[i].size());
  }
  Interpreter interp;
  Interpreter::Options options;
  options.workers = 1;  // per-kernel dispatch throughput, not grid parallelism
  const auto start = std::chrono::steady_clock::now();
  DynamicProfile profile = interp.run(*u.kernel, u.dims, u.args(addrs), mem, options);
  wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  mem_hash = mem.hash_range(0, mem.size(), kMemHashSeed);
  return profile;
}

bool profiles_equal(const DynamicProfile& a, const DynamicProfile& b) {
  return a.block_visits == b.block_visits &&
         a.instr_counts.counts == b.instr_counts.counts &&
         a.global_load_bytes == b.global_load_bytes &&
         a.global_store_bytes == b.global_store_bytes &&
         a.barriers_waited == b.barriers_waited && a.sfu_instrs == b.sfu_instrs &&
         a.sqrt_instrs == b.sqrt_instrs;
}

std::string to_json(const std::vector<UnitResult>& units, std::size_t reps) {
  using run::json::escape;
  using run::json::number;
  std::uint64_t promoted_kernels = 0, total_compiles = 0, total_fused = 0;
  double best_speedup = 0.0;
  std::uint64_t kernels_ge_1_5x = 0;
  for (const UnitResult& u : units) {
    if (u.promoted) ++promoted_kernels;
    total_compiles += u.compiles;
    total_fused += u.fused;
    best_speedup = std::max(best_speedup, u.speedup);
    if (u.promoted && u.speedup >= 1.5) ++kernels_ge_1_5x;
  }
  std::ostringstream os;
  os << "{\n  \"bench\": \"tier_throughput\",\n";
  os << "  \"workers\": 1,\n  \"reps\": " << reps << ",\n";
  os << "  \"promoted_kernels\": " << promoted_kernels << ",\n";
  os << "  \"total_compiles\": " << total_compiles << ",\n";
  os << "  \"total_fused_superinsts\": " << total_fused << ",\n";
  os << "  \"best_speedup\": " << number(best_speedup) << ",\n";
  os << "  \"kernels_ge_1_5x\": " << kernels_ge_1_5x << ",\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitResult& u = units[i];
    os << "    {\"kernel\": \"" << escape(u.kernel) << "\", \"app\": \"" << escape(u.app)
       << "\", \"n\": " << u.n << ", \"instrs\": " << u.instrs
       << ", \"promoted\": " << (u.promoted ? "true" : "false")
       << ", \"compiles\": " << u.compiles << ", \"fused_superinsts\": " << u.fused
       << ", \"t1_minstr_per_sec\": " << number(u.t1_minstr_s)
       << ", \"t2_minstr_per_sec\": " << number(u.t2_minstr_s)
       << ", \"speedup\": " << number(u.speedup) << "}";
    os << (i + 1 != units.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;

  std::uint64_t size_override = 0;
  std::size_t reps = 3;
  std::string json_path = "BENCH_tier.json";
  const char* const usage = "[--n N] [--reps N] [--json PATH] [--trace PATH]";
  const auto parse_flags = [&] {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--n" && i + 1 < argc) {
        size_override = run::parse_number<std::uint64_t>(argv[++i], "--n");
      } else if (arg == "--reps" && i + 1 < argc) {
        reps = std::max<std::size_t>(1, run::parse_number<std::uint64_t>(argv[++i], "--reps"));
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (arg == "--trace" && i + 1 < argc) {
        trace::Tracer::enable(argv[++i]);
      }
    }
  };
  bench::parse_flags_or_exit(argv, usage, parse_flags);

  std::cout << "== tier_throughput: Tier-1 interpreter vs Tier-2 threaded code ==\n\n";

  const auto suite = workloads::make_suite();
  const auto apps = workloads::make_app_suite();

  std::vector<BenchUnit> units;
  for (const auto& w : suite) {
    BenchUnit u;
    u.app = w.app;
    u.kernel_name = w.kernel.name;
    u.kernel = &w.kernel;
    u.n = size_override != 0 ? size_override : (w.estimate_n != 0 ? w.estimate_n : w.test_n);
    u.dims = w.dims(u.n);
    u.args = [&w, n = u.n](const std::vector<std::uint64_t>& addrs) {
      return w.args(addrs, n);
    };
    u.buffers_of = &w;
    units.push_back(std::move(u));
  }
  for (const auto& w : apps) {
    for (const auto& stage : w.stages) {
      BenchUnit u;
      u.app = w.app;
      u.kernel_name = stage.kernel.name;
      u.kernel = &stage.kernel;
      u.n = size_override != 0 ? size_override
                               : (w.estimate_n != 0 ? w.estimate_n : w.test_n);
      u.dims = stage.dims(u.n);
      u.args = [&stage, n = u.n](const std::vector<std::uint64_t>& addrs) {
        return stage.args(addrs, n, /*jitter=*/0);
      };
      u.buffers_of = &w;
      units.push_back(std::move(u));
    }
  }

  Tier2Engine& engine = Tier2Engine::instance();
  const Tier2Engine::Mode saved_mode = engine.mode();

  std::vector<UnitResult> results;
  bool mismatch = false;

  TablePrinter table({"Kernel", "App", "Instrs", "Promoted", "Fused", "T1 Minstr/s",
                      "T2 Minstr/s", "Speedup"});

  for (const BenchUnit& u : units) {
    // --- Tier-1 forced reference ------------------------------------------
    engine.set_mode(Tier2Engine::Mode::kForceTier1);
    double t1_best_ms = 0.0;
    std::uint64_t ref_hash = 0;
    DynamicProfile reference;
    for (std::size_t r = 0; r < reps; ++r) {
      double ms = 0.0;
      std::uint64_t hash = 0;
      DynamicProfile p = one_run(u, ms, hash);
      if (r == 0) {
        reference = p;
        ref_hash = hash;
      } else if (!profiles_equal(p, reference) || hash != ref_hash) {
        std::cerr << "NONDETERMINISM: " << u.kernel_name
                  << " Tier-1 reps disagree with each other\n";
        mismatch = true;
      }
      if (r == 0 || ms < t1_best_ms) t1_best_ms = ms;
    }

    // --- Tiered (auto promotion, fresh engine state) ----------------------
    engine.reset();
    engine.set_mode(Tier2Engine::Mode::kAuto);
    const Tier2Stats before = engine.stats();
    double t2_best_ms = 0.0;
    {
      double ms = 0.0;
      std::uint64_t hash = 0;  // untimed first launch pays the lowering
      DynamicProfile p = one_run(u, ms, hash);
      if (!profiles_equal(p, reference) || hash != ref_hash) {
        std::cerr << "TIER DIVERGENCE: " << u.kernel_name << " (lowering launch)\n";
        mismatch = true;
      }
    }
    for (std::size_t r = 0; r < reps; ++r) {
      double ms = 0.0;
      std::uint64_t hash = 0;
      DynamicProfile p = one_run(u, ms, hash);
      if (!profiles_equal(p, reference) || hash != ref_hash) {
        std::cerr << "TIER DIVERGENCE: " << u.kernel_name
                  << " diverged from the Tier-1 profile/memory\n";
        mismatch = true;
      }
      if (r == 0 || ms < t2_best_ms) t2_best_ms = ms;
    }
    const Tier2Stats delta = engine.stats() - before;

    UnitResult res;
    res.app = u.app;
    res.kernel = u.kernel_name;
    res.n = u.n;
    res.instrs = reference.total_instrs();
    res.promoted = delta.launches_tier2 > 0;
    res.compiles = delta.compiles;
    res.fused = delta.fused_superinsts;
    res.t1_minstr_s =
        t1_best_ms > 0.0 ? static_cast<double>(res.instrs) / (t1_best_ms * 1e3) : 0.0;
    res.t2_minstr_s =
        t2_best_ms > 0.0 ? static_cast<double>(res.instrs) / (t2_best_ms * 1e3) : 0.0;
    res.speedup = res.t1_minstr_s > 0.0 ? res.t2_minstr_s / res.t1_minstr_s : 0.0;
    table.add_row({res.kernel, res.app, fmt_int(static_cast<long long>(res.instrs)),
                   res.promoted ? "yes" : "no", fmt_int(static_cast<long long>(res.fused)),
                   fmt_fixed(res.t1_minstr_s, 1), fmt_fixed(res.t2_minstr_s, 1),
                   fmt_ratio(res.speedup) + "x"});
    results.push_back(std::move(res));
  }

  engine.reset();
  engine.set_mode(saved_mode);

  table.print(std::cout);

  std::uint64_t promoted = 0, ge15 = 0;
  for (const UnitResult& r : results) {
    if (r.promoted) ++promoted;
    if (r.promoted && r.speedup >= 1.5) ++ge15;
  }
  std::cout << "\nPromoted " << promoted << "/" << results.size() << " kernels; " << ge15
            << " at >= 1.5x over Tier 1\n";

  if (!run::try_write_json_file(to_json(results, reps), json_path)) {
    std::cerr << "error: failed writing JSON results file: " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";

  if (mismatch) {
    std::cerr << "\ntier_throughput: tier-equivalence differential FAILED\n";
    return 1;
  }
  if (!run::flush_trace()) return 1;
  return 0;
}
