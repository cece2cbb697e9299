#include "interp/superinst.hpp"

namespace sigvp::interp_detail {

namespace {

/// Superinstruction of the adjacent pair (x, y), or SOp::kCount. A fused op
/// executes `x` then `y` as two budget-ticked micro-ops in original order,
/// so any operand overlap (y reading x's dst, y overwriting x's dst, ...) is
/// automatically correct; the tables only name profitable adjacent shapes.
/// The caller only offers a branch `y` when it is the block terminator.
SOp fuse_pair(Opcode x, Opcode y) {
#define SIGVP_FUSE(name, first, second) \
  if (x == Opcode::first && y == Opcode::second) return SOp::k_##name;
  SIGVP_FUSED_OPS(SIGVP_FUSE)
  SIGVP_FUSED_BRANCH_OPS(SIGVP_FUSE)
#undef SIGVP_FUSE
  return SOp::kCount;
}

}  // namespace

bool tier2_supported(const DecodedProgram& prog) {
  if (prog.has_global_atomics) return false;
  for (const DecodedBlock& db : prog.blocks) {
    for (std::uint32_t k = 0; k < db.num_instrs; ++k) {
      const DecodedInstr& d = prog.code[db.first_pc + k];
      if (static_cast<std::size_t>(d.op) >= kNumOpcodes) return false;
      // A mid-block terminator would make the block's lowered length
      // ambiguous; the builder never emits one, so just fall back.
      if (k + 1 < db.num_instrs && is_terminator(d.op)) return false;
    }
  }
  return true;
}

std::shared_ptr<const Tier2Program> lower_program(const DecodedProgram& prog,
                                                  unsigned stride_shift) {
  if (!tier2_supported(prog)) return nullptr;

  auto out = std::make_shared<Tier2Program>();
  out->num_regs = prog.num_regs;
  out->stride_shift = stride_shift;
  out->fingerprint = prog.fingerprint;
  out->block_first_pc.resize(prog.blocks.size());
  out->code.reserve(prog.code.size());

  const auto scale = [stride_shift](std::uint16_t reg) {
    return static_cast<std::uint32_t>(reg) << stride_shift;
  };

  // Vector prologue: maximal pure-register prefix of the entry block —
  // unless some branch re-enters block 0, in which case a mid-prologue pc
  // could be a jump target and the prefix is not straight-line for every
  // visit.
  bool entry_is_target = false;
  for (const DecodedInstr& d : prog.code) {
    if (is_branch_with_target(d.op) && d.target_block == 0) entry_is_target = true;
  }
  std::uint32_t prologue_len = 0;
  if (!entry_is_target) {
    const DecodedBlock& b0 = prog.blocks[0];
    while (prologue_len < b0.num_instrs &&
           op_has(prog.code[b0.first_pc + prologue_len].op, kOpVec)) {
      ++prologue_len;
    }
  }
  out->prologue.reserve(prologue_len);
  for (std::uint32_t k = 0; k < prologue_len; ++k) {
    const DecodedInstr& d = prog.code[prog.blocks[0].first_pc + k];
    VecOp v;
    v.op = d.op;
    v.d = scale(d.dst);
    v.a = scale(d.src0);
    v.b = scale(d.src1);
    v.c = scale(d.src2);
    v.imm = d.imm;  // FP immediates already pre-encoded as bit patterns
    out->prologue.push_back(v);
  }

  // Lower each block: 1:1 for the prologue region (so scalar execution can
  // start at flat pc 0 when the vector phase is skipped), greedy
  // non-overlapping pair fusion for everything else. Fusion never crosses a
  // block boundary, and branch targets only ever point at a block's first
  // instruction, so no fused pair can hide a jump target.
  std::vector<std::size_t> branch_pcs;  // lowered instrs ending in a branch
  for (std::size_t bi = 0; bi < prog.blocks.size(); ++bi) {
    const DecodedBlock& db = prog.blocks[bi];
    out->block_first_pc[bi] = static_cast<std::uint32_t>(out->code.size());
    std::uint32_t k = 0;
    const std::uint32_t no_fuse_below = bi == 0 ? prologue_len : 0u;
    while (k < db.num_instrs) {
      const DecodedInstr& x = prog.code[db.first_pc + k];
      Tier2Instr t;
      t.d = scale(x.dst);
      t.a = scale(x.src0);
      t.b = scale(x.src1);
      t.c = scale(x.src2);
      t.imm = x.imm;
      SOp fused = SOp::kCount;
      if (k >= no_fuse_below && k + 1 < db.num_instrs) {
        const DecodedInstr& y = prog.code[db.first_pc + k + 1];
        fused = fuse_pair(x.op, y.op);
        if (fused != SOp::kCount) {
          t.sop = static_cast<std::uint16_t>(fused);
          t.d2 = scale(y.dst);
          t.a2 = scale(y.src0);
          t.b2 = scale(y.src1);
          t.imm2 = y.imm;
          // Branch metadata of a fused-with-branch pair comes from `y`.
          t.target_block = y.target_block;
          t.fall_pc = y.fall_pc;  // kInvalidPc marker survives; pc fixed below
          t.fall_block = y.fall_block;
          ++out->fused_pairs;
          k += 2;
        }
      }
      if (fused == SOp::kCount) {
        t.sop = static_cast<std::uint16_t>(x.op);  // generic SOps are in Opcode order
        t.target_block = x.target_block;
        t.fall_pc = x.fall_pc;
        t.fall_block = x.fall_block;
        k += 1;
      }
      if (is_branch_with_target(prog.code[db.first_pc + k - 1].op)) {
        branch_pcs.push_back(out->code.size());
      }
      out->code.push_back(t);
    }
  }
  out->scalar_entry_pc = prologue_len;  // prologue region lowered 1:1 from pc 0

  // Fix up branch targets into the lowered pc space.
  for (const std::size_t pc : branch_pcs) {
    Tier2Instr& t = out->code[pc];
    t.target_pc = out->block_first_pc[t.target_block];
    if (t.fall_pc != kInvalidPc) t.fall_pc = out->block_first_pc[t.fall_block];
  }
  return out;
}

}  // namespace sigvp::interp_detail
