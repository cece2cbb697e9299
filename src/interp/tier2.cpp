#include "interp/tier2.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "interp/op_exec.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sigvp {
namespace interp_detail {

namespace {

/// Tier-2 block context: the shared block state plus the lowered code and
/// the block's SoA register slab.
struct T2Ctx : BlockCtx {
  const Tier2Instr* code = nullptr;
  RegValue* slab = nullptr;
};

// ---------------------------------------------------------------------------
// Vector prologue: the pure-register prefix of the entry block, executed in
// lane lockstep over the SoA slab. Each op is a tight loop over lanes with
// contiguous loads/stores (register r's lanes live at slab[(r<<shift)..]),
// which the compiler auto-vectorizes. Semantically this is exactly "every
// thread runs the prefix before anything else" — legal because the prefix
// touches no memory, fires no hooks, bumps no λ, and cannot branch, so no
// thread can observe another thread's progress through it.
// ---------------------------------------------------------------------------

using VecFn = void (*)(const T2Ctx&, const VecOp&, std::uint32_t lanes, const T2Thread*);

template <Opcode OP>
void vec_op(const T2Ctx& m, const VecOp& v, std::uint32_t lanes, const T2Thread* threads) {
  RegValue* const D = m.slab + v.d;
  if constexpr (OP == Opcode::kReadSpecial) {
    const auto sr = static_cast<SpecialReg>(v.imm);
    if (sr == SpecialReg::kTidX) {
      for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = threads[l].tid_x;
    } else if (sr == SpecialReg::kTidY) {
      for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = threads[l].tid_y;
    } else {  // uniform across the block
      const std::uint64_t val = special_value(m, sr, 0, 0);
      for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = val;
    }
  } else if constexpr (OP == Opcode::kLdParam) {  // uniform bounds check, broadcast value
    const std::uint64_t val = param_value(m, v.imm);
    for (std::uint32_t l = 0; l < lanes; ++l) D[l].bits = val;
  } else {
    const RegValue* const A = m.slab + v.a;
    const RegValue* const B = m.slab + v.b;
    const RegValue* const C = m.slab + v.c;
    for (std::uint32_t l = 0; l < lanes; ++l) eval<OP>(D[l], A[l], B[l], C[l], v.imm);
  }
}

template <Opcode OP>
constexpr VecFn vec_fn() {
  if constexpr (op_has(OP, kOpVec)) return vec_op<OP>;
  return nullptr;
}

// Lowering admits only kOpVec rows into the prologue, so every entry it
// reaches is non-null.
constexpr VecFn kVecFns[kNumOpcodes] = {
#define SIGVP_OP(E, ...) vec_fn<Opcode::E>(),
#include "ir/ops.def"
};

void run_vec_prologue(const T2Ctx& m, const std::vector<VecOp>& ops, std::uint32_t lanes,
                      const T2Thread* threads) {
  for (const VecOp& v : ops) kVecFns[static_cast<std::size_t>(v.op)](m, v, lanes, threads);
}

// ---------------------------------------------------------------------------
// Threaded-code scalar executor. One computed-goto dispatch per (possibly
// fused) superinstruction: no indirect call, no per-instruction done/barrier
// flag checks — ret/bar exit through their own labels. `T2_TICK()` charges
// the per-thread budget before each micro-op body, exactly where Tier 1
// checks it, so budget exhaustion fires at the same dynamic instruction with
// the same partial side effects.
// ---------------------------------------------------------------------------

void run_t2_thread(T2Ctx& m, T2Thread& t, const std::uint64_t max_instrs) {
  const Tier2Instr* d = m.code + t.pc;
  RegValue* const r = m.slab + t.lane;  // r[slot] = this thread's register
  std::uint64_t n = t.instrs_executed;

#if defined(__GNUC__) || defined(__clang__)
#define SIGVP_T2_LABEL(name, ...) &&t2_##name,
  static const void* const table[] = {
#define SIGVP_OP(E, id, ...) SIGVP_T2_LABEL(id)
#include "ir/ops.def"
      SIGVP_FUSED_OPS(SIGVP_T2_LABEL) SIGVP_FUSED_BRANCH_OPS(SIGVP_T2_LABEL)};
#undef SIGVP_T2_LABEL
#define T2_CASE(name) t2_##name:
#define T2_GO() goto* table[d->sop]
#define T2_END()
  T2_GO();
#else
#define T2_CASE(name) case SOp::k_##name:
#define T2_GO() goto t2_dispatch
#define T2_END() \
  default: break; \
  }
t2_dispatch:
  switch (static_cast<SOp>(d->sop)) {
#endif

#define T2_TICK() \
  do { if (++n > max_instrs) [[unlikely]] throw_budget_exhausted(*m.ir); } while (0)
#define T2_NEXT() \
  do { ++d; T2_GO(); } while (0)
// Branch: bump λ of the target block, jump. Operands are captured before
// `d` moves.
#define T2_TAKE(pc_expr, blk_expr)                       \
  do {                                                   \
    const std::uint32_t t2_p = (pc_expr);                \
    const std::uint32_t t2_b = (blk_expr);               \
    ++m.block_visits[t2_b];                              \
    d = m.code + t2_p;                                   \
    T2_GO();                                             \
  } while (0)
// Control-flow tails, named by opcode; `reg` is the condition register.
#define T2_FLOW_kJmp(reg) T2_TAKE(d->target_pc, d->target_block)
#define T2_FLOW_kBraZ(reg) T2_BRANCH(reg, false)
#define T2_FLOW_kBraNZ(reg) T2_BRANCH(reg, true)
#define T2_BRANCH(reg, taken_if_nonzero)                                       \
  do {                                                                         \
    if (r[(reg)].truthy() == (taken_if_nonzero)) {                             \
      T2_TAKE(d->target_pc, d->target_block);                                  \
    }                                                                          \
    if (d->fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir);   \
    T2_TAKE(d->fall_pc, d->fall_block);                                        \
  } while (0)
#define T2_FIRST(E) exec_op<Opcode::E>(m, r, d->d, d->a, d->b, d->c, d->imm, t.tid_x, t.tid_y)
#define T2_SECOND(E) exec_op<Opcode::E>(m, r, d->d2, d->a2, d->b2, 0, d->imm2, t.tid_x, t.tid_y)

  // --- straight-line rows: the shared op bodies -----------------------------
#define SIGVP_OP(E, id, ...) \
  T2_CASE(id) {              \
    T2_TICK();               \
    T2_FIRST(E);             \
    T2_NEXT();               \
  }
#define SIGVP_FLOW(...)
#include "ir/ops.def"

  // --- control flow ----------------------------------------------------------
  T2_CASE(jmp) {
    T2_TICK();
    T2_FLOW_kJmp(d->a);
  }
  T2_CASE(bra_z) {
    T2_TICK();
    T2_FLOW_kBraZ(d->a);
  }
  T2_CASE(bra_nz) {
    T2_TICK();
    T2_FLOW_kBraNZ(d->a);
  }
  T2_CASE(ret) {
    T2_TICK();
    t.done = true;
    t.pc = static_cast<std::uint32_t>(d - m.code);
    t.instrs_executed = n;
    return;
  }
  T2_CASE(bar) {
    T2_TICK();
    t.at_barrier = true;
    t.pc = static_cast<std::uint32_t>(d - m.code) + 1;
    t.instrs_executed = n;
    return;
  }

  // --- fused superinstructions ----------------------------------------------
  // The constituent bodies back to back, each behind its own budget tick;
  // the second micro-op takes the `2`-suffixed operands (it has no src2).
#define SIGVP_T2_FUSED(name, X, Y)                                   \
  T2_CASE(name) {                                                    \
    static_assert(op_traits(Opcode::Y).shape != OpShape::kTern);     \
    T2_TICK();                                                       \
    T2_FIRST(X);                                                     \
    T2_TICK();                                                       \
    T2_SECOND(Y);                                                    \
    T2_NEXT();                                                       \
  }
#define SIGVP_T2_FUSED_BRANCH(name, X, Y) \
  T2_CASE(name) {                         \
    T2_TICK();                            \
    T2_FIRST(X);                          \
    T2_TICK();                            \
    T2_FLOW_##Y(d->a2);                   \
  }
  SIGVP_FUSED_OPS(SIGVP_T2_FUSED)
  SIGVP_FUSED_BRANCH_OPS(SIGVP_T2_FUSED_BRANCH)

  T2_END()

#undef SIGVP_T2_FUSED
#undef SIGVP_T2_FUSED_BRANCH
#undef T2_FIRST
#undef T2_SECOND
#undef T2_FLOW_kJmp
#undef T2_FLOW_kBraZ
#undef T2_FLOW_kBraNZ
#undef T2_BRANCH
#undef T2_TAKE
#undef T2_NEXT
#undef T2_TICK
#undef T2_CASE
#undef T2_GO
#undef T2_END
}

}  // namespace

void run_tier2_block(const Tier2Program& prog2, const KernelIR& ir, const LaunchDims& dims,
                     const KernelArgs& args, AddressSpace& global, const MemAccessHook* hook,
                     std::uint64_t max_instrs_per_thread, Tier2Arena& arena,
                     DynamicProfile& profile, std::uint32_t ctaid_x, std::uint32_t ctaid_y) {
  const auto nthreads = static_cast<std::uint32_t>(dims.threads_per_block());

  arena.threads.resize(nthreads);
  arena.slab.assign(static_cast<std::size_t>(prog2.num_regs) << prog2.stride_shift,
                    RegValue{});
  T2Ctx m;
  static_cast<BlockCtx&>(m) =
      block_ctx(ir, dims, args, global, hook, profile, arena.shared, ctaid_x, ctaid_y);
  m.code = prog2.code.data();
  m.slab = arena.slab.data();

  for (std::uint32_t ty = 0; ty < dims.block_y; ++ty) {
    for (std::uint32_t tx = 0; tx < dims.block_x; ++tx) {
      const std::uint32_t lane = ty * dims.block_x + tx;
      T2Thread& t = arena.threads[lane];
      t.pc = 0;
      t.lane = lane;
      t.tid_x = tx;
      t.tid_y = ty;
      t.done = false;
      t.at_barrier = false;
      t.instrs_executed = 0;
      ++m.block_visits[0];  // λ of the entry block, one per thread (as Tier 1)
    }
  }

  // Vector phase: run the pure-register prologue for all lanes at once, then
  // park every thread right after it with the budget charged. Skipped when
  // the budget could expire inside the prologue — the scalar code contains
  // the prologue instructions too, so starting from pc 0 reproduces Tier-1
  // budget exhaustion exactly.
  if (!prog2.prologue.empty() && max_instrs_per_thread >= prog2.prologue.size()) {
    run_vec_prologue(m, prog2.prologue, nthreads, arena.threads.data());
    for (T2Thread& t : arena.threads) {
      t.pc = prog2.scalar_entry_pc;
      t.instrs_executed = prog2.prologue.size();
    }
  }

  // Barrier-phase scheduling, identical to run_decoded_block. Strict-barrier
  // diagnostics never route here (the engine keeps them on Tier 1), so the
  // release is always the silent CUDA exited-thread rule.
  while (true) {
    for (T2Thread& t : arena.threads) {
      if (t.done || t.at_barrier) continue;
      run_t2_thread(m, t, max_instrs_per_thread);
    }
    std::size_t waiting = 0;
    for (const T2Thread& t : arena.threads) {
      if (t.at_barrier) ++waiting;
    }
    if (waiting == 0) break;
    for (T2Thread& t : arena.threads) t.at_barrier = false;
    ++profile.barriers_waited;
  }
}

void check_tier_divergence(const KernelIR& ir, const DynamicProfile& ref,
                           const DynamicProfile& got, const AddressSpace& ref_mem,
                           const AddressSpace& got_mem) {
  const auto fail = [&](const std::string& what) {
    throw ContractError("SIGVP_TIER_VERIFY: kernel '" + ir.name +
                        "' diverged between Tier 2 and Tier 1 — " + what);
  };
  if (got.block_visits != ref.block_visits) fail("block_visits (λ) mismatch");
  if (got.instr_counts.counts != ref.instr_counts.counts) {
    fail("per-class instruction counts mismatch");
  }
  if (got.global_load_bytes != ref.global_load_bytes) fail("global_load_bytes mismatch");
  if (got.global_store_bytes != ref.global_store_bytes) fail("global_store_bytes mismatch");
  if (got.barriers_waited != ref.barriers_waited) fail("barriers_waited mismatch");
  if (got.sfu_instrs != ref.sfu_instrs) fail("sfu_instrs mismatch");
  if (got.sqrt_instrs != ref.sqrt_instrs) fail("sqrt_instrs mismatch");
  if (got_mem.size() != ref_mem.size()) fail("address-space size mismatch");
  constexpr std::uint64_t kWindow = 1u << 20;
  for (std::uint64_t off = 0; off < got_mem.size(); off += kWindow) {
    const std::uint64_t len = std::min<std::uint64_t>(kWindow, got_mem.size() - off);
    if (got_mem.hash_range(off, len, kMemHashSeed) !=
        ref_mem.hash_range(off, len, kMemHashSeed)) {
      fail("memory mismatch in window [" + std::to_string(off) + ", " +
           std::to_string(off + len) + ")");
    }
  }
}

}  // namespace interp_detail

// ---------------------------------------------------------------------------
// Tier2Engine
// ---------------------------------------------------------------------------

namespace {

/// SoA lane stride (as a shift) covering every thread of a block of `dims`.
unsigned stride_shift(const LaunchDims& dims) {
  unsigned s = 0;
  while ((1ull << s) < dims.threads_per_block()) ++s;
  return s;
}

/// Static heat of a launch: total threads × static instruction count. A pure
/// function of (kernel, dims) — the promotion threshold compares against it.
std::uint64_t static_heat(const interp_detail::DecodedProgram& prog, const LaunchDims& dims) {
  const std::uint64_t instrs = prog.code.size();
  const std::uint64_t threads = dims.total_threads();
  if (instrs != 0 && threads > ~0ull / instrs) return ~0ull;  // saturate
  return threads * instrs;
}

}  // namespace

Tier2Engine::Tier2Engine() {
  if (const char* e = std::getenv("SIGVP_TIER")) {
    if (e[0] == '1' && e[1] == '\0') {
      mode_.store(Mode::kForceTier1, std::memory_order_relaxed);
    } else if (e[0] == '2' && e[1] == '\0') {
      mode_.store(Mode::kForceTier2, std::memory_order_relaxed);
    }
  }
  if (const char* v = std::getenv("SIGVP_TIER_VERIFY")) {
    if (v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
      verify_.store(true, std::memory_order_relaxed);
    }
  }
}

Tier2Engine& Tier2Engine::instance() {
  static Tier2Engine engine;
  return engine;
}

Tier2Stats Tier2Engine::stats() const {
  Tier2Stats s;
  s.launches_tier2 = launches_tier2_.load(std::memory_order_relaxed);
  s.launches_tier1 = launches_tier1_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.fused_superinsts = fused_superinsts_.load(std::memory_order_relaxed);
  s.verify_launches = verify_launches_.load(std::memory_order_relaxed);
  return s;
}

void Tier2Engine::reset() {
  interp_detail::DecodedCache::instance().clear();
  launches_tier2_.store(0, std::memory_order_relaxed);
  launches_tier1_.store(0, std::memory_order_relaxed);
  compiles_.store(0, std::memory_order_relaxed);
  fused_superinsts_.store(0, std::memory_order_relaxed);
  verify_launches_.store(0, std::memory_order_relaxed);
}

bool Tier2Engine::eligible(const interp_detail::DecodedProgram& prog,
                           const LaunchDims& dims) const {
  return interp_detail::tier2_supported(prog) &&
         static_heat(prog, dims) >= min_static_heat_.load(std::memory_order_relaxed);
}

std::shared_ptr<const interp_detail::Tier2Program> Tier2Engine::select(
    const KernelIR& ir, const std::shared_ptr<const interp_detail::DecodedProgram>& prog,
    const LaunchDims& dims, bool strict_barriers) {
  // Forced Tier 1, strict-barrier diagnostics, global atomics / unknown ops
  // and (unless forced to Tier 2) cold launches stay on Tier 1.
  const Mode mode = mode_.load(std::memory_order_relaxed);
  const bool promote = mode == Mode::kForceTier2 ? interp_detail::tier2_supported(*prog)
                                                 : eligible(*prog, dims);
  if (mode == Mode::kForceTier1 || strict_barriers || !promote) {
    launches_tier1_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  trace::Tracer* tracer = trace::Tracer::active();
  const double host_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
  const interp_detail::DecodedCache::Lowered lowered =
      interp_detail::DecodedCache::instance().lowered(ir, prog, stride_shift(dims));
  if (lowered.compiled) {
    compiles_.fetch_add(1, std::memory_order_relaxed);
    fused_superinsts_.fetch_add(lowered.program->fused_pairs, std::memory_order_relaxed);
    if (tracer != nullptr) {
      tracer->complete(tracer->host_pid(), tracer->host_tid(), "tier2", "lower:" + ir.name,
                       host_t0, tracer->host_now_us() - host_t0,
                       {trace::arg("fused", static_cast<int>(lowered.program->fused_pairs)),
                        trace::arg("instrs", static_cast<int>(lowered.program->code.size()))});
    }
  }
  launches_tier2_.fetch_add(1, std::memory_order_relaxed);
  return lowered.program;
}

}  // namespace sigvp
