#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "interp/decoded.hpp"

namespace sigvp::interp_detail {

/// Peephole superinstructions of the Tier-2 engine (DESIGN.md §15):
/// (name, first op, second op). A fused op executes its constituent
/// micro-ops in the original program order through the same op bodies as
/// every other op — all destination registers are written, every memory
/// access fires in sequence, and the per-thread budget ticks once per
/// micro-op — so fusion is invisible to the byte-exactness contract by
/// construction. The second op never reads src2.
#define SIGVP_FUSED_OPS(X)                                              \
  X(mul_add_i, kMulI, kAddI) /* gid = ctaid*ntid + tid */               \
  X(shl_add_i, kShlB, kAddI) /* addr_of: base + (i<<log2) */            \
  X(add_add_i, kAddI, kAddI)                                            \
  X(ld_ld_f32, kLdGlobalF32, kLdGlobalF32)                              \
  X(ld_add_f32, kLdGlobalF32, kAddF32)                                  \
  X(ld_mul_f32, kLdGlobalF32, kMulF32)                                  \
  X(ld_sub_f32, kLdGlobalF32, kSubF32)                                  \
  X(add_st_f32, kAddF32, kStGlobalF32)                                  \
  X(mul_st_f32, kMulF32, kStGlobalF32)                                  \
  X(sub_st_f32, kSubF32, kStGlobalF32)                                  \
  X(fma_st_f32, kFmaF32, kStGlobalF32)                                  \
  X(mul_add_f32, kMulF32, kAddF32) /* two roundings, never an fma */

/// Superinstructions whose second op is the block's terminator branch; they
/// only form at a block's end.
#define SIGVP_FUSED_BRANCH_OPS(X)                                          \
  X(add_i_jmp, kAddI, kJmp) /* loop-end increment + backedge */            \
  X(set_lt_i_bra_z, kSetLtI, kBraZ) /* guard / loop head */                \
  X(set_lt_i_bra_nz, kSetLtI, kBraNZ)                                      \
  X(set_ge_i_bra_z, kSetGeI, kBraZ)                                        \
  X(set_ge_i_bra_nz, kSetGeI, kBraNZ)

/// Opcode space of the Tier-2 threaded-code engine: one generic op per
/// ops.def row, in Opcode order (so an op's generic SOp is its Opcode
/// value), then the superinstructions. The enum, the computed-goto label
/// table and the dispatch bodies in tier2.cpp all expand from the same
/// lists: a row without a body is a compile error, not a runtime hole.
enum class SOp : std::uint16_t {
#define SIGVP_OP(E, id, ...) k_##id,
#include "ir/ops.def"
#define SIGVP_T2_ENUM(name, ...) k_##name,
  SIGVP_FUSED_OPS(SIGVP_T2_ENUM) SIGVP_FUSED_BRANCH_OPS(SIGVP_T2_ENUM)
#undef SIGVP_T2_ENUM
      kCount
};

/// One Tier-2 threaded instruction. Register operands are pre-scaled SoA
/// slot offsets (`reg << stride_shift`), so a handler's register access is
/// `slab[lane + slot]` — the same single-add addressing Tier-1 pays, but
/// with each architectural register's lanes contiguous in memory (the layout
/// the vector prologue's inner loops auto-vectorize over).
///
/// `d/a/b/c` are the first micro-op's dst/src0/src1/src2; `d2/a2/b2` belong
/// to the second micro-op of a fused pair. Branch targets are pre-resolved
/// flat pcs in the *lowered* code space.
struct Tier2Instr {
  std::uint32_t d = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t d2 = 0;
  std::uint32_t a2 = 0;
  std::uint32_t b2 = 0;
  std::uint16_t sop = 0;  // SOp index into the dispatch table
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;
  std::uint32_t target_pc = 0;
  std::uint32_t target_block = 0;
  std::uint32_t fall_pc = 0;  // kInvalidPc when the lexically last block
  std::uint32_t fall_block = 0;
};

/// One instruction of the vectorized entry-block prologue, executed in lane
/// lockstep across the whole thread block (see Tier2Program::prologue).
/// Operands are pre-scaled SoA slot offsets like Tier2Instr.
struct VecOp {
  Opcode op = Opcode::kNop;
  std::uint32_t d = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::int64_t imm = 0;
};

/// A DecodedProgram lowered to Tier-2 threaded code for one SoA stride.
///
/// The prologue is the maximal prefix of the entry block consisting of pure
/// register ops (no memory, no control flow, no div/rem traps): every thread
/// executes exactly these instructions first, they touch only lane-private
/// registers, fire no hooks and bump no λ, so running them lane-lockstep is
/// provably byte-exact and the inner loops vectorize over the contiguous SoA
/// lanes. The scalar code still contains the prologue instructions (lowered
/// 1:1, never fused), so execution can start from flat pc 0 whenever the
/// vector phase is skipped (e.g. a budget smaller than the prologue).
struct Tier2Program {
  std::vector<Tier2Instr> code;
  std::vector<std::uint32_t> block_first_pc;  // lowered pc of each block
  std::vector<VecOp> prologue;
  std::uint32_t scalar_entry_pc = 0;  // lowered pc right after the prologue
  std::uint32_t num_regs = 1;
  unsigned stride_shift = 0;  // SoA lane stride = 1 << stride_shift
  std::uint64_t fingerprint = 0;
  std::uint32_t fused_pairs = 0;  // superinstructions formed by the peephole

  std::size_t mem_bytes() const {
    return code.size() * sizeof(Tier2Instr) + prologue.size() * sizeof(VecOp) +
           block_first_pc.size() * sizeof(std::uint32_t);
  }
};

/// True when every instruction of `prog` has a Tier-2 lowering (no global
/// atomics, no mid-block terminators, only known opcodes). Pure function of
/// the program — the per-scenario eligibility metric leans on that.
bool tier2_supported(const DecodedProgram& prog);

/// Lowers `prog` into threaded code with operands pre-scaled for an SoA
/// stride of `1 << stride_shift` (which must cover threads_per_block).
/// Returns nullptr when the program is unsupported.
std::shared_ptr<const Tier2Program> lower_program(const DecodedProgram& prog,
                                                  unsigned stride_shift);

}  // namespace sigvp::interp_detail
