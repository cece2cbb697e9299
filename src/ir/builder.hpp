#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace sigvp {

/// Fluent construction of KernelIR programs.
///
/// The builder plays the role of the CUDA-C compiler front-end in this
/// reproduction: workload kernels are written against it and the result is
/// the "binary" every execution path consumes. Branch targets are symbolic
/// labels resolved (and the whole program validated) in build().
///
/// Example — vectorAdd:
///   KernelBuilder b("vectorAdd", /*num_params=*/4);
///   auto [a, c, n] = ...;  // registers via b.reg()
///   b.block("entry");
///   ... b.ld_param(a, 0); ...
///   b.ret();
///   KernelIR ir = b.build();
class KernelBuilder {
 public:
  using Reg = std::uint8_t;

  KernelBuilder(std::string name, std::uint32_t num_params);

  /// Allocates a fresh register (at most 255 per kernel).
  Reg reg();

  /// Declares per-block shared-memory usage in bytes.
  void set_shared_bytes(std::uint32_t bytes);

  /// Starts a new basic block with a unique label. The first block created
  /// is the kernel entry. The previous block must already be terminated.
  void block(const std::string& label);

  // --- data movement -------------------------------------------------------
  void mov_imm_i(Reg dst, std::int64_t value);
  void mov_imm_f32(Reg dst, float value);
  void mov_imm_f64(Reg dst, double value);
  void special(Reg dst, SpecialReg sr);
  void ld_param(Reg dst, std::uint32_t param_index);

  // --- register ops and memory accesses: one method per ops.def row ---------
  // Named by the row's id. Register ops take (dst, a), (dst, a, b) or
  // (dst, a, b, c) by shape: fma is a*b + c, select is a ? b : c. Loads take
  // (dst, addr, offset), stores and atomics (value, addr, offset); the byte
  // address is regs[addr] + offset.
#define SIGVP_ALU(E, id, text, cls, shape, ...) SIGVP_BUILDER_##shape(id)
#define SIGVP_BUILDER_Imm(id)
#define SIGVP_BUILDER_Fimm(id)
#define SIGVP_BUILDER_Un(id) void id(Reg dst, Reg a);
#define SIGVP_BUILDER_Bin(id) void id(Reg dst, Reg a, Reg b);
#define SIGVP_BUILDER_Tern(id) void id(Reg dst, Reg a, Reg b, Reg c);
#define SIGVP_MEM(E, id, ...) void id(Reg reg, Reg addr, std::int64_t offset = 0);
#include "ir/ops.def"
#undef SIGVP_BUILDER_Imm
#undef SIGVP_BUILDER_Fimm
#undef SIGVP_BUILDER_Un
#undef SIGVP_BUILDER_Bin
#undef SIGVP_BUILDER_Tern

  // --- control flow --------------------------------------------------------
  void jmp(const std::string& label);
  void bra_z(Reg cond, const std::string& label);
  void bra_nz(Reg cond, const std::string& label);
  void ret();
  void bar();

  // --- composites ----------------------------------------------------------

  /// dst = base + (index << log2_elem_size); emits one Bit + one Int op,
  /// matching the address math a real compiler generates.
  void addr_of(Reg dst, Reg base, Reg index, int log2_elem_size);

  /// Structured counted loop. The caller initializes `counter`, `bound`
  /// and `step` beforehand. loop_begin terminates the current block; the
  /// loop body starts immediately after it; loop_end jumps back to the
  /// header and opens the exit block.
  struct Loop {
    Reg counter;
    Reg bound;
    Reg step;
    Reg cond;
    std::string head;
    std::string exit;
  };
  Loop loop_begin(Reg counter, Reg bound, Reg step, const std::string& name);
  void loop_end(const Loop& loop);

  /// Finalizes the program: resolves labels, runs the validator, and
  /// returns the immutable IR. The builder must not be reused afterwards.
  KernelIR build();

 private:
  struct PendingBranch {
    std::size_t block;
    std::size_t instr;
    std::string label;
  };

  BasicBlock& current();
  void emit(Instr instr);
  void emit_branch(Opcode op, Reg cond, const std::string& label);

  KernelIR ir_;
  std::map<std::string, std::size_t> label_to_block_;
  std::vector<PendingBranch> pending_;
  std::uint32_t next_reg_ = 0;
  bool built_ = false;
};

}  // namespace sigvp
