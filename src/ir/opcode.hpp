#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "ir/instr_class.hpp"

namespace sigvp {

/// Trait bits of an op-table row (ir/ops.def).
enum OpFlag : std::uint16_t {
  kOpTerminator = 1u << 0,  ///< ends a basic block (bra, bra.z, bra.nz, ret)
  kOpTarget = 1u << 1,      ///< carries a block target in imm
  kOpSfu = 1u << 2,         ///< runs on SFU hardware (sqrt, rsqrt, exp, log, sin, cos)
  kOpSqrt = 1u << 3,        ///< the SFU subset CPUs have instructions for (sqrt, rsqrt)
  kOpGlobal = 1u << 4,      ///< global-memory access (loads, stores, atomics)
  kOpShared = 1u << 5,      ///< shared-memory access
  kOpAtomic = 1u << 6,      ///< global read-modify-write
  kOpBarrier = 1u << 7,     ///< bar.sync
  /// May run in Tier 2's lane-lockstep vector prologue: a pure register op
  /// (no memory, hooks, λ or control flow). div/rem stay out because their
  /// zero-divisor trap would need per-lane unwind ordering.
  kOpVec = 1u << 8,
  kOpTrapZero = 1u << 9,  ///< a zero divisor (src1) raises an error
};

/// Operand layout of an op (what dst/src0/src1/src2/imm/fimm mean).
enum class OpShape : std::uint8_t {
  kNone,      // no operands
  kImm,       // dst <- imm
  kFimm,      // dst <- fimm
  kSpecial,   // dst <- special register (imm = SpecialReg)
  kParam,     // dst <- kernel parameter (imm = param index)
  kUn,        // dst <- f(src0)
  kBin,       // dst <- f(src0, src1)
  kTern,      // dst <- f(src0, src1, src2)
  kMem,       // address regs[src0] + imm; loads write dst, stores read src1
  kJump,      // goto block imm
  kCondJump,  // branch on src0 to block imm, else fall through
};

/// PTX-like opcode set of the kernel IR, one enumerator per ops.def row.
///
/// The set intentionally mirrors what the paper's profiler distinguishes:
/// FP32/FP64 arithmetic (including the transcendental ops CUDA maps onto the
/// SFU), integer and bit ops used for address math, control flow, and
/// global/shared memory accesses.
enum class Opcode : std::uint8_t {
#define SIGVP_OP(E, ...) E,
#include "ir/ops.def"
};

inline constexpr std::size_t kNumOpcodes = static_cast<std::size_t>(Opcode::kStSharedI64) + 1;
// Opcode values are hashed into kernel fingerprints, launch-cache keys and
// snapshots: rows may only be appended.
static_assert(static_cast<int>(Opcode::kStSharedI64) == 99, "ops.def rows reordered");

/// Built-in per-thread values a kernel can read (CUDA's special registers).
enum class SpecialReg : std::uint8_t {
  kTidX = 0,
  kTidY,
  kCtaidX,
  kCtaidY,
  kNtidX,
  kNtidY,
  kNctaidX,
  kNctaidY,
};

/// Everything the op table says about one opcode.
struct OpTraits {
  std::string_view name;
  InstrClass cls = InstrClass::kInt;
  OpShape shape = OpShape::kNone;
  std::uint16_t flags = 0;
  std::uint8_t width = 0;  // bytes moved by a memory op, else 0
};

inline constexpr OpTraits kOpTraits[kNumOpcodes] = {
#define SIGVP_OP(E, id, text, cls, shape, flags, width) \
  {text, InstrClass::k##cls, OpShape::k##shape, flags, width},
#include "ir/ops.def"
};

/// Traits of `op`; an out-of-range value reads as a nameless Int-class nop.
constexpr OpTraits op_traits(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kNumOpcodes ? kOpTraits[i] : OpTraits{"?"};
}

constexpr bool op_has(Opcode op, std::uint16_t flag) { return (op_traits(op).flags & flag) != 0; }

/// Maps an opcode to the paper's 7 instruction classes.
constexpr InstrClass instr_class(Opcode op) { return op_traits(op).cls; }
constexpr std::string_view opcode_name(Opcode op) { return op_traits(op).name; }

/// True for opcodes that terminate a basic block (kJmp/kBraZ/kBraNZ/kRet).
constexpr bool is_terminator(Opcode op) { return op_has(op, kOpTerminator); }

/// True for conditional or unconditional jumps carrying a block target.
constexpr bool is_branch_with_target(Opcode op) { return op_has(op, kOpTarget); }

/// True for global/shared memory loads or stores (including atomics).
constexpr bool is_memory_op(Opcode op) { return op_has(op, kOpGlobal | kOpShared); }
constexpr bool is_global_memory_op(Opcode op) { return op_has(op, kOpGlobal); }
constexpr bool is_shared_op(Opcode op) { return op_has(op, kOpShared); }

/// True for transcendental/special-function opcodes (sqrt, rsqrt, exp, log,
/// sin, cos). Real GPUs run these on SFU hardware; software emulators pay a
/// libm call for each, which is why FP-special-heavy apps emulate so badly.
constexpr bool is_sfu_op(Opcode op) { return op_has(op, kOpSfu); }

/// Subset of the SFU ops that CPUs handle cheaply in hardware (sqrt/rsqrt
/// have SSE instructions); the rest (exp/log/sin/cos) are full libm calls.
constexpr bool is_sqrt_op(Opcode op) { return op_has(op, kOpSqrt); }

/// Number of bytes moved by a memory opcode (0 for non-memory opcodes).
constexpr std::uint32_t memory_width_bytes(Opcode op) { return op_traits(op).width; }

std::string_view special_reg_name(SpecialReg sr);

}  // namespace sigvp
