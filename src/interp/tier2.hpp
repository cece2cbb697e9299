#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "interp/superinst.hpp"

namespace sigvp {

/// Process-wide Tier-2 counters, all monotonically increasing totals;
/// `operator-` yields a delta, mirroring LaunchCacheStats. The lowered
/// programs themselves live in the kernel cache (interp_detail::DecodedCache),
/// whose eviction counter covers both program forms.
///
/// Every count is a pure function of the sim-domain launch stream: tier
/// decisions never look at wall-clock or worker interleaving, so two runs of
/// the same fleet produce identical deltas at any `--workers`.
struct Tier2Stats {
  std::uint64_t launches_tier2 = 0;    ///< launches executed on Tier 2
  std::uint64_t launches_warming = 0;  ///< always 0: promotion has no warmup
  std::uint64_t launches_tier1 = 0;    ///< cold / unsupported / forced Tier 1
  std::uint64_t compiles = 0;          ///< lowerings performed on promotion
  std::uint64_t fused_superinsts = 0;  ///< static fused pairs across compiles
  std::uint64_t verify_launches = 0;   ///< Tier-2 launches cross-checked on Tier 1

  Tier2Stats operator-(const Tier2Stats& base) const {
    Tier2Stats d;
    d.launches_tier2 = launches_tier2 - base.launches_tier2;
    d.launches_warming = launches_warming - base.launches_warming;
    d.launches_tier1 = launches_tier1 - base.launches_tier1;
    d.compiles = compiles - base.compiles;
    d.fused_superinsts = fused_superinsts - base.fused_superinsts;
    d.verify_launches = verify_launches - base.verify_launches;
    return d;
  }
  bool operator==(const Tier2Stats&) const = default;
};

/// Tier-2 execution engine: decides per launch whether to run the lowered
/// threaded code or fall back to the Tier-1 interpreter.
///
/// Promotion policy (DESIGN.md §15): a launch runs on Tier 2 iff
///   1. nothing forces Tier 1 (strict barriers, global atomics, unsupported
///      opcodes, `SIGVP_TIER=1`), and
///   2. its static heat `total_threads × static_instrs` reaches the
///      threshold.
/// Its kernel is lowered on the first such launch and the lowering is kept
/// in the kernel's DecodedCache entry. Both tests are pure functions of
/// (kernel, dims), so the decision never depends on worker interleaving.
/// `SIGVP_TIER=2` skips (2); results are byte-exact either way.
class Tier2Engine {
 public:
  enum class Mode { kAuto, kForceTier1, kForceTier2 };

  /// Default heat threshold; tests override it via set_promotion.
  static constexpr std::uint64_t kDefaultMinStaticHeat = 4096;

  /// Singleton; first use reads SIGVP_TIER / SIGVP_TIER_VERIFY.
  static Tier2Engine& instance();

  Mode mode() const { return mode_.load(std::memory_order_relaxed); }
  void set_mode(Mode m) { mode_.store(m, std::memory_order_relaxed); }
  bool verify() const { return verify_.load(std::memory_order_relaxed); }
  void set_verify(bool v) { verify_.store(v, std::memory_order_relaxed); }

  void set_promotion(std::uint64_t min_static_heat) {
    min_static_heat_.store(min_static_heat, std::memory_order_relaxed);
  }

  Tier2Stats stats() const;

  /// Zeroes every counter and drops the kernel cache, so the next launches
  /// pay cold decodes and lowerings (mode, verify flag and heat threshold
  /// are left as configured).
  void reset();

  /// Pure eligibility: would a launch of `prog` at `dims` run on Tier 2
  /// under the auto policy? No state is read or written beyond the
  /// configured threshold — the per-scenario metrics counter uses this.
  bool eligible(const interp_detail::DecodedProgram& prog, const LaunchDims& dims) const;

  /// Launch-time tier decision for `prog` (the kernel cache's decode of
  /// `ir`). Returns the lowered program to execute, or nullptr to stay on
  /// Tier 1; bumps the stats counters.
  std::shared_ptr<const interp_detail::Tier2Program> select(
      const KernelIR& ir, const std::shared_ptr<const interp_detail::DecodedProgram>& prog,
      const LaunchDims& dims, bool strict_barriers);

  void note_verified() { verify_launches_.fetch_add(1, std::memory_order_relaxed); }

 private:
  Tier2Engine();

  std::atomic<Mode> mode_{Mode::kAuto};
  std::atomic<bool> verify_{false};

  std::atomic<std::uint64_t> launches_tier2_{0};
  std::atomic<std::uint64_t> launches_tier1_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> fused_superinsts_{0};
  std::atomic<std::uint64_t> verify_launches_{0};

  std::atomic<std::uint64_t> min_static_heat_{kDefaultMinStaticHeat};
};

namespace interp_detail {

/// Per-thread Tier-2 state. Registers live in the block-wide SoA slab
/// (`slab[slot + lane]`), so the struct is just control state.
struct T2Thread {
  std::uint32_t pc = 0;
  std::uint32_t lane = 0;
  std::uint32_t tid_x = 0;
  std::uint32_t tid_y = 0;
  bool done = false;
  bool at_barrier = false;
  std::uint64_t instrs_executed = 0;
};

/// Reusable per-worker scratch for Tier-2 blocks (SoA slab + thread states +
/// shared-memory image), the Tier-2 twin of ExecArena.
struct Tier2Arena {
  std::vector<RegValue> slab;
  std::vector<T2Thread> threads;
  std::vector<std::uint8_t> shared;
};

/// Executes one thread block of the lowered program, byte-exact vs
/// run_decoded_block: same thread-serial barrier-phase scheduling, same λ
/// bumps, same hook-before-access order, same budget semantics (one tick per
/// micro-op, checked before the op body), same error behavior.
void run_tier2_block(const Tier2Program& prog2, const KernelIR& ir, const LaunchDims& dims,
                     const KernelArgs& args, AddressSpace& global, const MemAccessHook* hook,
                     std::uint64_t max_instrs_per_thread, Tier2Arena& arena,
                     DynamicProfile& profile, std::uint32_t ctaid_x, std::uint32_t ctaid_y);

/// SIGVP_TIER_VERIFY oracle: compares the Tier-2 run's profile and post-run
/// memory against a Tier-1 reference; throws ContractError naming the first
/// divergent field or memory window.
void check_tier_divergence(const KernelIR& ir, const DynamicProfile& ref,
                           const DynamicProfile& got, const AddressSpace& ref_mem,
                           const AddressSpace& got_mem);

}  // namespace interp_detail
}  // namespace sigvp
