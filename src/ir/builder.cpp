#include "ir/builder.hpp"

#include <utility>

#include "ir/validate.hpp"
#include "util/check.hpp"

namespace sigvp {

KernelBuilder::KernelBuilder(std::string name, std::uint32_t num_params) {
  SIGVP_REQUIRE(!name.empty(), "kernel name must be non-empty");
  ir_.name = std::move(name);
  ir_.num_params = num_params;
}

KernelBuilder::Reg KernelBuilder::reg() {
  SIGVP_REQUIRE(next_reg_ < 256, "kernel exceeds the 256-register budget");
  return static_cast<Reg>(next_reg_++);
}

void KernelBuilder::set_shared_bytes(std::uint32_t bytes) { ir_.shared_bytes = bytes; }

void KernelBuilder::block(const std::string& label) {
  SIGVP_REQUIRE(!built_, "builder already finalized");
  SIGVP_REQUIRE(!label.empty(), "block label must be non-empty");
  SIGVP_REQUIRE(!label_to_block_.contains(label), "duplicate block label: " + label);
  if (!ir_.blocks.empty()) {
    const BasicBlock& prev = ir_.blocks.back();
    SIGVP_REQUIRE(!prev.instrs.empty() && is_terminator(prev.instrs.back().op),
                  "previous block must end with a terminator before opening " + label);
  }
  label_to_block_[label] = ir_.blocks.size();
  ir_.blocks.push_back(BasicBlock{label, {}});
}

BasicBlock& KernelBuilder::current() {
  SIGVP_REQUIRE(!ir_.blocks.empty(), "open a block before emitting instructions");
  return ir_.blocks.back();
}

void KernelBuilder::emit(Instr instr) {
  SIGVP_REQUIRE(!built_, "builder already finalized");
  BasicBlock& b = current();
  SIGVP_REQUIRE(b.instrs.empty() || !is_terminator(b.instrs.back().op),
                "cannot emit past the terminator of block " + b.label);
  b.instrs.push_back(instr);
}

void KernelBuilder::mov_imm_i(Reg dst, std::int64_t value) {
  emit(Instr{Opcode::kMovImmI, dst, 0, 0, 0, value, 0.0});
}
void KernelBuilder::mov_imm_f32(Reg dst, float value) {
  emit(Instr{Opcode::kMovImmF32, dst, 0, 0, 0, 0, static_cast<double>(value)});
}
void KernelBuilder::mov_imm_f64(Reg dst, double value) {
  emit(Instr{Opcode::kMovImmF64, dst, 0, 0, 0, 0, value});
}
void KernelBuilder::special(Reg dst, SpecialReg sr) {
  emit(Instr{Opcode::kReadSpecial, dst, 0, 0, 0, static_cast<std::int64_t>(sr), 0.0});
}
void KernelBuilder::ld_param(Reg dst, std::uint32_t param_index) {
  SIGVP_REQUIRE(param_index < ir_.num_params, "parameter index out of range");
  emit(Instr{Opcode::kLdParam, dst, 0, 0, 0, static_cast<std::int64_t>(param_index), 0.0});
}

#define SIGVP_ALU(E, id, text, cls, shape, ...) SIGVP_BUILDER_##shape(E, id)
#define SIGVP_BUILDER_Imm(E, id)
#define SIGVP_BUILDER_Fimm(E, id)
#define SIGVP_BUILDER_Un(E, id) \
  void KernelBuilder::id(Reg dst, Reg a) { emit(Instr{Opcode::E, dst, a, 0, 0, 0, 0.0}); }
#define SIGVP_BUILDER_Bin(E, id) \
  void KernelBuilder::id(Reg dst, Reg a, Reg b) { emit(Instr{Opcode::E, dst, a, b, 0, 0, 0.0}); }
#define SIGVP_BUILDER_Tern(E, id)                        \
  void KernelBuilder::id(Reg dst, Reg a, Reg b, Reg c) { \
    emit(Instr{Opcode::E, dst, a, b, c, 0, 0.0});        \
  }
// Loads write dst; stores and atomics carry the value register in src1.
#define SIGVP_MEM(E, id, text, cls, ...)                                       \
  void KernelBuilder::id(Reg reg, Reg addr, std::int64_t offset) {             \
    if (InstrClass::k##cls == InstrClass::kLoad) {                             \
      emit(Instr{Opcode::E, reg, addr, 0, 0, offset, 0.0});                    \
    } else {                                                                   \
      emit(Instr{Opcode::E, 0, addr, reg, 0, offset, 0.0});                    \
    }                                                                          \
  }
#include "ir/ops.def"
#undef SIGVP_BUILDER_Imm
#undef SIGVP_BUILDER_Fimm
#undef SIGVP_BUILDER_Un
#undef SIGVP_BUILDER_Bin
#undef SIGVP_BUILDER_Tern

void KernelBuilder::emit_branch(Opcode op, Reg cond, const std::string& label) {
  pending_.push_back({ir_.blocks.size() - 1, current().instrs.size(), label});
  emit(Instr{op, 0, cond, 0, 0, -1, 0.0});
}
void KernelBuilder::jmp(const std::string& label) { emit_branch(Opcode::kJmp, 0, label); }
void KernelBuilder::bra_z(Reg cond, const std::string& label) {
  emit_branch(Opcode::kBraZ, cond, label);
}
void KernelBuilder::bra_nz(Reg cond, const std::string& label) {
  emit_branch(Opcode::kBraNZ, cond, label);
}
void KernelBuilder::ret() { emit(Instr{Opcode::kRet, 0, 0, 0, 0, 0, 0.0}); }
void KernelBuilder::bar() { emit(Instr{Opcode::kBar, 0, 0, 0, 0, 0, 0.0}); }

void KernelBuilder::addr_of(Reg dst, Reg base, Reg index, int log2_elem_size) {
  SIGVP_REQUIRE(log2_elem_size >= 0 && log2_elem_size <= 4, "element size must be 1..16 bytes");
  const Reg shift = reg();
  mov_imm_i(shift, log2_elem_size);
  const Reg scaled = reg();
  shl_b(scaled, index, shift);
  add_i(dst, base, scaled);
}

KernelBuilder::Loop KernelBuilder::loop_begin(Reg counter, Reg bound, Reg step,
                                              const std::string& name) {
  Loop loop;
  loop.counter = counter;
  loop.bound = bound;
  loop.step = step;
  loop.cond = reg();
  loop.head = name + ".head";
  loop.exit = name + ".exit";
  jmp(loop.head);
  block(loop.head);
  set_lt_i(loop.cond, counter, bound);
  bra_z(loop.cond, loop.exit);
  block(name + ".body");
  return loop;
}

void KernelBuilder::loop_end(const Loop& loop) {
  add_i(loop.counter, loop.counter, loop.step);
  jmp(loop.head);
  block(loop.exit);
}

KernelIR KernelBuilder::build() {
  SIGVP_REQUIRE(!built_, "builder already finalized");
  SIGVP_REQUIRE(!ir_.blocks.empty(), "kernel has no blocks");
  for (const PendingBranch& pb : pending_) {
    auto it = label_to_block_.find(pb.label);
    SIGVP_REQUIRE(it != label_to_block_.end(), "undefined label: " + pb.label);
    ir_.blocks[pb.block].instrs[pb.instr].imm = static_cast<std::int64_t>(it->second);
  }
  ir_.num_regs = next_reg_;
  built_ = true;
  validate_kernel(ir_);
  return std::move(ir_);
}

}  // namespace sigvp
