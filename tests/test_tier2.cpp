// Differential battery for the Tier-2 threaded-code engine (DESIGN.md §15):
// for every workload in the suite the Tier-2 memory image and DynamicProfile
// must be byte-exact vs the Tier-1 interpreter at every worker count; the
// promotion decision must be a pure function of the sim-domain launch stream
// (identical across worker counts and across resume-from-checkpoint); the
// access hook must see the same per-chunk streams on both tiers; cold,
// atomic and strict-barrier launches must route back to Tier 1; an in-place
// kernel rebuild must re-lower through the fingerprint; and the
// SIGVP_TIER_VERIFY oracle must pass cleanly on the whole suite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/scenario.hpp"
#include "interp/decoded.hpp"
#include "interp/superinst.hpp"
#include "interp/interpreter.hpp"
#include "interp/tier2.hpp"
#include "ir/builder.hpp"
#include "mem/allocator.hpp"
#include "run/sweep.hpp"
#include "snapshot/io.hpp"
#include "snapshot/serial.hpp"
#include "snapshot/state.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

namespace fs = std::filesystem;
using workloads::Workload;

constexpr std::uint64_t kSpace = 64ull * 1024 * 1024;

/// The tier engine is a process-wide singleton; every test that touches it
/// runs inside a sandbox that starts from a clean slate and restores the
/// entry mode/verify flag plus the default knobs on exit, so test order
/// never leaks tier state (into this binary or the tests around it).
struct EngineSandbox {
  Tier2Engine::Mode mode;
  bool verify;
  EngineSandbox()
      : mode(Tier2Engine::instance().mode()), verify(Tier2Engine::instance().verify()) {
    Tier2Engine::instance().reset();
  }
  ~EngineSandbox() {
    Tier2Engine& e = Tier2Engine::instance();
    e.set_mode(mode);
    e.set_verify(verify);
    e.set_promotion(Tier2Engine::kDefaultMinStaticHeat);
    e.reset();
  }
};

struct RunResult {
  std::vector<std::uint8_t> memory;
  DynamicProfile profile;
};

/// Fresh memory, deterministic inputs, one launch at `w.test_n` under the
/// given tier mode and worker count; returns memory image + profile.
RunResult run_workload(const Workload& w, std::size_t workers, Tier2Engine::Mode mode,
                       Interpreter::Options options = {}) {
  Tier2Engine::instance().set_mode(mode);
  AddressSpace mem(kSpace, "m");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  const auto bufs = w.buffers(w.test_n);
  std::vector<std::uint64_t> addrs;
  for (const auto& b : bufs) {
    const auto a = alloc.allocate(b.bytes);
    EXPECT_TRUE(a.has_value()) << w.app;
    addrs.push_back(*a);
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    if (!bufs[i].is_input) continue;
    for (std::uint64_t off = 0; off + 4 <= bufs[i].bytes; off += 4) {
      mem.write<float>(addrs[i] + off, 0.5f);
    }
  }

  Interpreter interp;
  options.workers = workers;
  RunResult out;
  out.profile = interp.run(w.kernel, w.dims(w.test_n), w.args(addrs, w.test_n), mem, options);
  out.memory.resize(mem.size());
  mem.copy_out(out.memory.data(), 0, out.memory.size());
  return out;
}

void expect_profiles_identical(const DynamicProfile& a, const DynamicProfile& b,
                               const std::string& label) {
  EXPECT_EQ(a.block_visits, b.block_visits) << label;
  EXPECT_EQ(a.instr_counts, b.instr_counts) << label;
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << label;
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes) << label;
  EXPECT_EQ(a.barriers_waited, b.barriers_waited) << label;
  EXPECT_EQ(a.sfu_instrs, b.sfu_instrs) << label;
  EXPECT_EQ(a.sqrt_instrs, b.sqrt_instrs) << label;
}

// --- suite-wide tier differential ---------------------------------------------

class Tier2DifferentialTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const std::vector<Workload>& suite() {
    static const std::vector<Workload> s = workloads::make_suite();
    return s;
  }
  const Workload& workload() const { return workloads::find(suite(), GetParam()); }
};

TEST_P(Tier2DifferentialTest, MemoryAndProfileByteExactVsTier1AtEveryWorkerCount) {
  EngineSandbox sandbox;
  const Workload& w = workload();
  const RunResult t1 = run_workload(w, 1, Tier2Engine::Mode::kForceTier1);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    const RunResult t2 = run_workload(w, workers, Tier2Engine::Mode::kForceTier2);
    const std::string label = w.app + " tier2 @ workers=" + std::to_string(workers);
    EXPECT_TRUE(t2.memory == t1.memory) << label << ": memory image diverged";
    expect_profiles_identical(t1.profile, t2.profile, label);
  }
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads::make_suite()) names.push_back(w.app);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, Tier2DifferentialTest, ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// --- budget exhaustion --------------------------------------------------------

TEST(Tier2Differential, BudgetExhaustionThrowsAtTheSamePointWithTheSameSideEffects) {
  EngineSandbox sandbox;
  const auto suite = workloads::make_suite();
  const Workload& w = workloads::find(suite, "matrixMul");
  // Budgets inside the vector prologue (1), mid-prologue (3) and mid-loop:
  // Tier 2 must throw the identical ContractError with the identical partial
  // memory image (serial execution so the partial state is deterministic).
  const auto run_with_budget = [&w](Tier2Engine::Mode mode, std::uint64_t budget,
                                    std::vector<std::uint8_t>& memory) {
    Tier2Engine::instance().set_mode(mode);
    AddressSpace mem(kSpace, "m");
    FreeListAllocator alloc(4096, mem.size() - 4096);
    const auto bufs = w.buffers(w.test_n);
    std::vector<std::uint64_t> addrs;
    for (const auto& b : bufs) addrs.push_back(*alloc.allocate(b.bytes));
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      if (!bufs[i].is_input) continue;
      for (std::uint64_t off = 0; off + 4 <= bufs[i].bytes; off += 4) {
        mem.write<float>(addrs[i] + off, 0.5f);
      }
    }
    Interpreter::Options opts;
    opts.max_instrs_per_thread = budget;
    opts.workers = 1;
    std::string what;
    try {
      Interpreter().run(w.kernel, w.dims(w.test_n), w.args(addrs, w.test_n), mem, opts);
    } catch (const ContractError& e) {
      what = e.what();
    }
    memory.resize(mem.size());
    mem.copy_out(memory.data(), 0, memory.size());
    return what;
  };
  for (const std::uint64_t budget : {1ull, 3ull, 17ull, 200ull}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    std::vector<std::uint8_t> mem1, mem2;
    const std::string what1 = run_with_budget(Tier2Engine::Mode::kForceTier1, budget, mem1);
    const std::string what2 = run_with_budget(Tier2Engine::Mode::kForceTier2, budget, mem2);
    EXPECT_TRUE(mem1 == mem2) << "partial memory image diverged";
    // The REQUIRE preamble embeds the throw site (file:line), which rightly
    // differs between tiers — compare the kernel-facing message after it.
    const auto msg = [](const std::string& what) {
      const std::size_t dash = what.find("\xE2\x80\x94");
      return dash == std::string::npos ? what : what.substr(dash);
    };
    EXPECT_FALSE(what1.empty());
    EXPECT_FALSE(what2.empty());
    EXPECT_EQ(msg(what1), msg(what2));
  }
}

// --- access-hook differential -------------------------------------------------

TEST(Tier2Differential, AccessHookSeesByteIdenticalChunkStreamsOnBothTiers) {
  // The access hook is how the L2 model and the launch cache observe a
  // launch, so the tier choice must be invisible to it too: forced Tier 2
  // and forced Tier 1 hand every chunk's hook the identical access stream.
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  using Access = std::tuple<std::uint64_t, std::uint32_t, bool>;
  const auto streams = [](const Workload& w, Tier2Engine::Mode mode) {
    std::vector<std::vector<Access>> per_chunk(Interpreter::canonical_chunks(w.dims(w.test_n)));
    Interpreter::Options opts;
    opts.access_hook = [&per_chunk](std::size_t chunk) -> MemAccessHook {
      std::vector<Access>* log = &per_chunk[chunk];
      return [log](std::uint64_t addr, std::uint32_t bytes, bool is_store) {
        log->emplace_back(addr, bytes, is_store);
      };
    };
    run_workload(w, 4, mode, opts);
    return per_chunk;
  };

  for (const Workload& w : workloads::make_suite()) {
    const auto t1 = streams(w, Tier2Engine::Mode::kForceTier1);
    const Tier2Stats before = eng.stats();
    const auto t2 = streams(w, Tier2Engine::Mode::kForceTier2);
    // Only global atomics keep a forced launch on Tier 1.
    EXPECT_EQ((eng.stats() - before).launches_tier2,
              Interpreter::uses_global_atomics(w.kernel) ? 0u : 1u)
        << w.app;
    ASSERT_EQ(t1.size(), t2.size()) << w.app;
    for (std::size_t c = 0; c < t1.size(); ++c) {
      EXPECT_TRUE(t1[c] == t2[c]) << w.app << ": chunk " << c << " stream diverged";
    }
  }
}

// --- every-op differential ----------------------------------------------------

/// Register bit patterns of FP values (f32 in the low 32 bits, as set_f32
/// leaves them).
std::uint64_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Raw register patterns every register op runs on: integer edges and shift
/// counts, then f32 and f64 signed zeros, infinities, NaN and subnormals.
std::vector<std::uint64_t> edge_corpus() {
  using F = std::numeric_limits<float>;
  using D = std::numeric_limits<double>;
  return {
      0,
      1,
      ~0ull,       // -1
      1ull << 63,  // INT64_MIN, -0.0 as f64
      ~0ull >> 1,  // INT64_MAX
      63,          // shift counts 63 and 64
      64,
      bits_of(-0.0f),
      bits_of(1.5f),
      bits_of(F::infinity()),
      bits_of(-F::infinity()),
      bits_of(F::quiet_NaN()),
      bits_of(F::denorm_min()),
      bits_of(-2.5),
      bits_of(D::infinity()),
      bits_of(-D::infinity()),
      bits_of(D::quiet_NaN()),
      bits_of(D::denorm_min()),
  };
}

/// Operand corpus of `op`: the edge corpus, except for the conversions that
/// C++ only defines for in-range sources (float -> int, f64 -> f32), which
/// get sources whose f32 and f64 readings are both in range.
std::vector<std::uint64_t> corpus_for(Opcode op) {
  if (op != Opcode::kCvtF32ToI && op != Opcode::kCvtF64ToI && op != Opcode::kCvtF64ToF32) {
    return edge_corpus();
  }
  return {
      0,
      1,
      1ull << 63,
      bits_of(-0.0f),
      bits_of(1.5f),
      bits_of(-1e9f),
      bits_of(std::numeric_limits<float>::denorm_min()),
      bits_of(-2.5),
      bits_of(1e10),
  };
}

/// Every operand tuple of `op` over its corpus (src0, src1, src2; unused
/// slots 0), minus zero divisors for the trapping ops.
std::vector<std::array<std::uint64_t, 3>> operand_tuples(Opcode op) {
  const OpTraits k = op_traits(op);
  const std::vector<std::uint64_t> c = corpus_for(op);
  const std::size_t arity = k.shape == OpShape::kUn ? 1 : k.shape == OpShape::kBin ? 2 : 3;
  std::vector<std::array<std::uint64_t, 3>> out;
  for (std::uint64_t a : c) {
    for (std::uint64_t b : arity >= 2 ? c : std::vector<std::uint64_t>{0}) {
      if ((k.flags & kOpTrapZero) && b == 0) continue;
      for (std::uint64_t cc : arity == 3 ? c : std::vector<std::uint64_t>{0}) {
        out.push_back({a, b, cc});
      }
    }
  }
  return out;
}

/// Retypes every fma.f64 of `ir` (the three-source placeholder the kernels
/// below emit) to `op`.
KernelIR retype_placeholder(KernelIR ir, Opcode op) {
  for (Instr& in : ir.blocks[0].instrs) {
    if (in.op == Opcode::kFmaF64) in.op = op;
  }
  return ir;
}

/// Scalar path: thread `gid` loads its operands from in[3*gid..] (a global
/// load ends the vector prologue before the op) and stores the result bits
/// to out[gid].
KernelIR scalar_path_kernel(Opcode op) {
  KernelBuilder b("every_op_scalar", 2);
  const auto in = b.reg(), out = b.reg(), gid = b.reg(), t = b.reg(), n = b.reg();
  const auto src = b.reg(), dst = b.reg(), x = b.reg(), y = b.reg(), z = b.reg();
  const auto res = b.reg();
  b.block("entry");
  b.ld_param(in, 0);
  b.ld_param(out, 1);
  b.special(gid, SpecialReg::kTidX);
  b.special(t, SpecialReg::kCtaidX);
  b.special(n, SpecialReg::kNtidX);
  b.mul_i(t, t, n);
  b.add_i(gid, gid, t);
  b.mov_imm_i(n, 24);
  b.mul_i(src, gid, n);
  b.add_i(src, src, in);        // &in[3 * gid]
  b.addr_of(dst, out, gid, 3);  // &out[gid]
  b.ld_global_i64(x, src);
  b.ld_global_i64(y, src, 8);
  b.ld_global_i64(z, src, 16);
  b.fma_f64(res, x, y, z);
  b.st_global_i64(res, dst);
  b.ret();
  return retype_placeholder(b.build(), op);
}

/// Vector path: tuples [first, first + count) built from immediates in the
/// entry block, each op writing its own register, then stored to out[i].
KernelIR vector_path_kernel(Opcode op, const std::vector<std::array<std::uint64_t, 3>>& tuples,
                            std::size_t first, std::size_t count) {
  KernelBuilder b("every_op_vector", 1);
  const auto out = b.reg(), x = b.reg(), y = b.reg(), z = b.reg();
  std::vector<KernelBuilder::Reg> res;
  for (std::size_t i = 0; i < count; ++i) res.push_back(b.reg());
  b.block("entry");
  b.ld_param(out, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& ops = tuples[first + i];
    b.mov_imm_i(x, std::bit_cast<std::int64_t>(ops[0]));
    b.mov_imm_i(y, std::bit_cast<std::int64_t>(ops[1]));
    b.mov_imm_i(z, std::bit_cast<std::int64_t>(ops[2]));
    b.fma_f64(res[i], x, y, z);
  }
  for (std::size_t i = 0; i < count; ++i) {
    b.st_global_i64(res[i], out, static_cast<std::int64_t>(8 * i));
  }
  b.ret();
  return retype_placeholder(b.build(), op);
}

/// One launch on a forced tier; returns the memory image and profile.
RunResult run_forced(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                     const std::vector<std::uint64_t>& input, Tier2Engine::Mode mode) {
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(mode);
  AddressSpace mem(1 << 20, "m");
  for (std::size_t i = 0; i < input.size(); ++i) mem.write<std::uint64_t>(8 * i, input[i]);
  Interpreter::Options opts;
  opts.workers = 1;
  const Tier2Stats before = eng.stats();
  RunResult out;
  out.profile = Interpreter().run(ir, dims, args, mem, opts);
  EXPECT_EQ((eng.stats() - before).launches_tier2,
            mode == Tier2Engine::Mode::kForceTier2 ? 1u : 0u);
  out.memory.resize(mem.size());
  mem.copy_out(out.memory.data(), 0, out.memory.size());
  return out;
}

void expect_tiers_identical(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                            const std::vector<std::uint64_t>& input, const std::string& label) {
  const RunResult t1 = run_forced(ir, dims, args, input, Tier2Engine::Mode::kForceTier1);
  const RunResult t2 = run_forced(ir, dims, args, input, Tier2Engine::Mode::kForceTier2);
  EXPECT_TRUE(t1.memory == t2.memory) << label << ": memory image diverged";
  expect_profiles_identical(t1.profile, t2.profile, label);
}

TEST(Tier2Differential, EveryRegisterOpMatchesTier1OnEdgeOperands) {
  // Walks the op table, so a new register-op row is covered without touching
  // this test: every Un/Bin/Tern row runs over its operand corpus once on
  // the scalar path and once on the vector prologue, byte-compared (memory
  // and DynamicProfile) between forced Tier 1 and forced Tier 2.
  EngineSandbox sandbox;
  constexpr std::uint64_t kIn = 4096;      // operand tuples, 3 words each
  constexpr std::uint64_t kOut = 1 << 19;  // results, one word each
  constexpr std::size_t kPerKernel = 200;  // vector-path tuples per kernel (256 regs)
  std::size_t ops = 0;
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    const Opcode op = static_cast<Opcode>(i);
    const OpShape shape = op_traits(op).shape;
    if (shape != OpShape::kUn && shape != OpShape::kBin && shape != OpShape::kTern) continue;
    ++ops;
    const std::string name(opcode_name(op));
    const auto tuples = operand_tuples(op);

    // Scalar path: one thread per tuple, padded to whole 64-thread blocks.
    const std::size_t threads = (tuples.size() + 63) / 64 * 64;
    ASSERT_LE(kIn + 24 * threads, kOut) << name;
    std::vector<std::uint64_t> input(kIn / 8, 0);
    for (std::size_t t = 0; t < threads; ++t) {
      for (const std::uint64_t v : tuples[t % tuples.size()]) input.push_back(v);
    }
    KernelArgs scalar_args;
    scalar_args.push_ptr(kIn);
    scalar_args.push_ptr(kOut);
    expect_tiers_identical(scalar_path_kernel(op),
                           LaunchDims{static_cast<std::uint32_t>(threads / 64), 1, 64, 1},
                           scalar_args, input, name + " (scalar path)");

    // Vector path: 8 lanes run each kernel's prologue in lockstep.
    KernelArgs vec_args;
    vec_args.push_ptr(kOut);
    for (std::size_t first = 0; first < tuples.size(); first += kPerKernel) {
      const std::size_t count = std::min(kPerKernel, tuples.size() - first);
      const KernelIR ir = vector_path_kernel(op, tuples, first, count);
      if (op_has(op, kOpVec)) {  // the op really runs in the prologue
        const auto lowered = interp_detail::lower_program(*interp_detail::decode_kernel(ir), 3);
        ASSERT_NE(lowered, nullptr) << name;
        EXPECT_EQ(lowered->prologue.size(), 1 + 4 * count) << name;
      }
      expect_tiers_identical(ir, LaunchDims{1, 1, 8, 1}, vec_args, {},
                             name + " (vector path, tuple " + std::to_string(first) + ")");
    }
  }
  EXPECT_GE(ops, 71u);  // the table's register ops at the time of writing
}

// --- promotion policy ---------------------------------------------------------

TEST(Tier2Promotion, FirstHotLaunchPromotesAndLaterLaunchesReuseTheLowering) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(Tier2Engine::Mode::kAuto);
  eng.set_promotion(/*min_static_heat=*/1);
  const auto suite = workloads::make_suite();
  const Workload& w = workloads::find(suite, "vectorAdd");

  const Tier2Stats before = eng.stats();
  run_workload(w, 1, Tier2Engine::Mode::kAuto);
  Tier2Stats d = eng.stats() - before;
  EXPECT_EQ(d.launches_tier2, 1u);  // the first hot launch already promotes
  EXPECT_EQ(d.compiles, 1u);
  EXPECT_EQ(d.launches_tier1, 0u);

  for (int i = 0; i < 2; ++i) run_workload(w, 1, Tier2Engine::Mode::kAuto);
  d = eng.stats() - before;
  EXPECT_EQ(d.launches_tier2, 3u);
  EXPECT_EQ(d.compiles, 1u);  // later launches reuse the cached lowering
  EXPECT_EQ(d.launches_warming, 0u);
}

TEST(Tier2Promotion, ColdKernelsStayOnTier1WithoutCompiling) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(Tier2Engine::Mode::kAuto);
  eng.set_promotion(/*min_static_heat=*/~0ull);
  const auto suite = workloads::make_suite();
  const Workload& w = workloads::find(suite, "vectorAdd");

  const Tier2Stats before = eng.stats();
  run_workload(w, 1, Tier2Engine::Mode::kAuto);
  const Tier2Stats d = eng.stats() - before;
  EXPECT_EQ(d.launches_tier1, 1u);
  EXPECT_EQ(d.launches_tier2, 0u);
  EXPECT_EQ(d.compiles, 0u);  // never lowered: cold code costs nothing
}

TEST(Tier2Promotion, DecisionStreamIsIdenticalAcrossWorkerCounts) {
  // The tier decision is a pure function of the sim-domain launch stream:
  // replaying the same launches at a different worker count must produce the
  // identical stats delta (DESIGN.md §15 determinism contract).
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(Tier2Engine::Mode::kAuto);
  const auto suite = workloads::make_suite();
  const std::vector<const Workload*> seq = {
      &workloads::find(suite, "vectorAdd"), &workloads::find(suite, "matrixMul"),
      &workloads::find(suite, "reduction"), &workloads::find(suite, "histogram")};

  std::vector<Tier2Stats> deltas;
  for (const std::size_t workers : {1u, 8u}) {
    eng.reset();
    const Tier2Stats before = eng.stats();
    for (int round = 0; round < 2; ++round) {
      for (const Workload* w : seq) run_workload(*w, workers, Tier2Engine::Mode::kAuto);
    }
    deltas.push_back(eng.stats() - before);
  }
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[0].launches_tier2 + deltas[0].launches_tier1, 2u * seq.size());
}

// --- fallback routing ---------------------------------------------------------

TEST(Tier2Fallback, GlobalAtomicsRouteToTier1EvenWhenForced) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  const auto suite = workloads::make_suite();
  const Workload& w = workloads::find(suite, "histogram");  // global atomics

  const Tier2Stats before = eng.stats();
  run_workload(w, 1, Tier2Engine::Mode::kForceTier2);
  const Tier2Stats d = eng.stats() - before;
  EXPECT_EQ(d.launches_tier1, 1u);
  EXPECT_EQ(d.launches_tier2, 0u);
  EXPECT_EQ(d.compiles, 0u);
}

TEST(Tier2Fallback, StrictBarrierDiagnosticsRouteToTier1) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  const auto suite = workloads::make_suite();
  const Workload& w = workloads::find(suite, "reduction");  // barriers, uniform

  Interpreter::Options opts;
  opts.strict_barriers = true;
  const Tier2Stats before = eng.stats();
  run_workload(w, 1, Tier2Engine::Mode::kForceTier2, opts);
  const Tier2Stats d = eng.stats() - before;
  EXPECT_EQ(d.launches_tier1, 1u);
  EXPECT_EQ(d.launches_tier2, 0u);
}

// --- fingerprint invalidation -------------------------------------------------

KernelIR make_store_const_kernel(std::int64_t value) {
  KernelBuilder b("t2mut", 1);
  const auto out = b.reg(), v = b.reg();
  b.block("entry");
  b.ld_param(out, 0);
  b.mov_imm_i(v, value);
  b.st_global_i64(v, out);
  b.ret();
  return b.build();
}

TEST(Tier2Promotion, InPlaceKernelRebuildRelowersThroughTheFingerprint) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(Tier2Engine::Mode::kAuto);
  eng.set_promotion(/*min_static_heat=*/0);  // promote every launch

  KernelIR ir = make_store_const_kernel(111);
  AddressSpace mem(1 << 16, "m");
  KernelArgs args;
  args.push_ptr(64);

  const Tier2Stats before = eng.stats();
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 111);
  EXPECT_EQ((eng.stats() - before).compiles, 1u);

  // Rebuild the kernel in place (same KernelIR object, different body): the
  // next launch must execute the NEW body through a fresh lowering, not the
  // stale Tier-2 code cached under the old fingerprint.
  const KernelIR next = make_store_const_kernel(222);
  ir.blocks = next.blocks;
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ(mem.read<std::int64_t>(64), 222);
  EXPECT_EQ((eng.stats() - before).compiles, 2u);

  // Same fingerprint again: cached, no third compile.
  Interpreter().run(ir, LaunchDims{}, args, mem);
  EXPECT_EQ((eng.stats() - before).compiles, 2u);
}

// --- SIGVP_TIER_VERIFY oracle -------------------------------------------------

TEST(Tier2Verify, OracleRunsCleanOnSuiteKernels) {
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_verify(true);
  const auto suite = workloads::make_suite();

  const Tier2Stats before = eng.stats();
  const RunResult t2 = run_workload(workloads::find(suite, "matrixMul"), 4,
                                    Tier2Engine::Mode::kForceTier2);
  run_workload(workloads::find(suite, "convolutionSeparable"), 4,
               Tier2Engine::Mode::kForceTier2);
  const Tier2Stats d = eng.stats() - before;
  EXPECT_EQ(d.verify_launches, 2u);  // both launches were cross-checked

  // And the verified result still matches a plain Tier-1 run.
  eng.set_verify(false);
  const RunResult t1 = run_workload(workloads::find(suite, "matrixMul"), 1,
                                    Tier2Engine::Mode::kForceTier1);
  EXPECT_TRUE(t1.memory == t2.memory);
  expect_profiles_identical(t1.profile, t2.profile, "verify smoke");
}

TEST(Tier2Verify, DivergenceCheckerAcceptsIdenticalAndRejectsPerturbed) {
  using interp_detail::check_tier_divergence;
  const auto suite = workloads::make_suite();
  const Workload& w = workloads::find(suite, "vectorAdd");
  EngineSandbox sandbox;
  const RunResult r = run_workload(w, 1, Tier2Engine::Mode::kForceTier1);

  AddressSpace a(1 << 20, "a"), b(1 << 20, "b");
  EXPECT_NO_THROW(check_tier_divergence(w.kernel, r.profile, r.profile, a, b));

  DynamicProfile bad = r.profile;
  bad.global_store_bytes += 4;
  EXPECT_THROW(check_tier_divergence(w.kernel, r.profile, bad, a, b), ContractError);

  b.write<std::uint8_t>(12345, 0xAB);  // one flipped byte in the memory image
  EXPECT_THROW(check_tier_divergence(w.kernel, r.profile, r.profile, a, b), ContractError);
}

// --- bounded DecodedCache (the kernel cache) -------------------------------

TEST(DecodedCacheBound, FifoEvictionKeepsTheCacheWithinItsCaps) {
  using interp_detail::DecodedCache;
  EngineSandbox sandbox;  // starts from an empty kernel cache
  DecodedCache& cache = DecodedCache::instance();
  cache.set_capacity(/*max_entries=*/2, DecodedCache::kDefaultMaxBytes);

  const KernelIR k1 = make_store_const_kernel(1);
  const KernelIR k2 = make_store_const_kernel(2);
  const KernelIR k3 = make_store_const_kernel(3);
  const std::uint64_t evictions0 = cache.evictions();

  const auto p1 = cache.get(k1);
  const auto p2 = cache.get(k2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), evictions0);

  const auto p3 = cache.get(k3);  // over cap: k1 (FIFO head) is evicted
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), evictions0 + 1);
  EXPECT_NE(p3, nullptr);
  // The evicted program stays alive through the returned shared_ptr, and a
  // re-get simply re-decodes.
  const auto p1b = cache.get(k1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), evictions0 + 2);
  EXPECT_EQ(p1->fingerprint, p1b->fingerprint);

  // An entry holds both program forms: evicting it drops the lowering too,
  // and the kernel's next launch re-decodes and re-lowers it.
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(Tier2Engine::Mode::kForceTier2);
  AddressSpace mem(1 << 16, "m");
  KernelArgs args;
  args.push_ptr(64);
  const auto launch = [&](const KernelIR& k) { Interpreter().run(k, LaunchDims{}, args, mem); };
  const Tier2Stats before = eng.stats();
  launch(k1);  // resident (FIFO: k3, k1): lowered into its entry
  launch(k1);  // reuses that lowering
  EXPECT_EQ((eng.stats() - before).compiles, 1u);
  launch(k2);  // evicts k3
  launch(k3);  // evicts k1, lowered form included
  launch(k1);
  EXPECT_EQ(mem.read<std::int64_t>(64), 1);
  EXPECT_EQ(cache.evictions(), evictions0 + 5);
  EXPECT_EQ((eng.stats() - before).compiles, 4u);
  EXPECT_EQ((eng.stats() - before).launches_tier2, 5u);

  // Byte cap alone also evicts: a cap smaller than any program empties the
  // FIFO on every insert while the caller's shared_ptr stays valid.
  cache.set_capacity(DecodedCache::kDefaultMaxEntries, /*max_bytes=*/1);
  const auto p2b = cache.get(k2);
  EXPECT_NE(p2b, nullptr);
  EXPECT_EQ(cache.size(), 0u);

  cache.set_capacity(DecodedCache::kDefaultMaxEntries, DecodedCache::kDefaultMaxBytes);
}

// --- promotion across resume-from-checkpoint ----------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sigvp_tier2_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::vector<std::vector<std::uint8_t>> sweep_bytes(const run::SweepResult& r) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& j : r.jobs) {
    snapshot::Writer w;
    snapshot::save_scenario_result(w, j.result);
    out.push_back(w.take());
  }
  return out;
}

run::SweepJob functional_job(const Workload& w, const char* name, std::size_t vps) {
  run::SweepJob job;
  job.name = name;
  job.group = w.app;
  job.config.mode = ExecMode::kFunctional;
  job.config.functional_io = true;
  job.config.gpu_mem_bytes = 16ull * 1024 * 1024;  // keep fleet captures small
  workloads::AppTraits t = w.traits;
  t.iterations = 1;
  for (std::size_t i = 0; i < vps; ++i) {
    AppInstance a;
    a.workload = &w;
    a.n = w.test_n;
    a.traits = t;
    job.apps.push_back(std::move(a));
  }
  return job;
}

TEST(Tier2Promotion, ResumedSweepIsBitIdenticalDespiteColdTierState) {
  // A resumed process starts with a cold kernel cache, so the re-run jobs
  // decode and lower again where the uninterrupted run reused its cached
  // forms. The results must not care: tier state is invisible in the sim
  // domain.
  EngineSandbox sandbox;
  Tier2Engine& eng = Tier2Engine::instance();
  eng.set_mode(Tier2Engine::Mode::kAuto);
  const auto suite = workloads::make_suite();
  std::vector<run::SweepJob> jobs;
  jobs.push_back(functional_job(workloads::find(suite, "vectorAdd"), "t2-va", 2));
  jobs.push_back(functional_job(workloads::find(suite, "reduction"), "t2-red", 2));

  eng.reset();
  const auto golden = sweep_bytes(run::SweepRunner(2).run(jobs));

  const TempDir tmp("resume");
  run::SweepSnapshotOptions snap;
  snap.dir = tmp.str();
  snap.every_us = 300.0;
  eng.reset();
  run::SweepResumeInfo cold;
  EXPECT_EQ(sweep_bytes(run::SweepRunner(2).run(jobs, snap, &cold)), golden);
  EXPECT_TRUE(cold.resumed_from.empty());

  // Craft the checkpoint a crash between the two jobs would leave: job 0
  // finished (splice), job 1 untouched (fresh run in the resumed process).
  snapshot::CheckpointStore store(tmp.str());
  ASSERT_FALSE(store.find_latest_valid().path.empty());
  snapshot::SweepCheckpoint cp = snapshot::decode_sweep_checkpoint(
      snapshot::load_snapshot_file(store.find_latest_valid().path));
  ASSERT_EQ(cp.jobs.size(), 2u);
  cp.jobs[1] = snapshot::JobCheckpoint{};
  snapshot::CheckpointStore(tmp.str()).publish(snapshot::encode_sweep_checkpoint(cp));

  eng.reset();  // the process restart loses the warm kernel cache
  run::SweepResumeInfo ri;
  const run::SweepResult resumed = run::SweepRunner(2).run(jobs, snap, &ri);
  EXPECT_EQ(ri.jobs_resumed, 1u);
  EXPECT_FALSE(ri.resumed_from.empty());
  EXPECT_EQ(sweep_bytes(resumed), golden);
}

}  // namespace
}  // namespace sigvp
