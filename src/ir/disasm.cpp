#include "ir/disasm.hpp"

#include <sstream>

namespace sigvp {

std::string disassemble(const Instr& in) {
  std::ostringstream os;
  os << opcode_name(in.op);
  auto r = [](std::uint8_t reg) { return "%r" + std::to_string(reg); };

  switch (op_traits(in.op).shape) {
    case OpShape::kNone:
      break;
    case OpShape::kImm:
      os << " " << r(in.dst) << ", " << in.imm;
      break;
    case OpShape::kFimm:
      os << " " << r(in.dst) << ", " << in.fimm;
      break;
    case OpShape::kSpecial:
      os << " " << r(in.dst) << ", " << special_reg_name(static_cast<SpecialReg>(in.imm));
      break;
    case OpShape::kParam:
      os << " " << r(in.dst) << ", [param " << in.imm << "]";
      break;
    case OpShape::kJump:
      os << " @" << in.imm;
      break;
    case OpShape::kCondJump:
      os << " " << r(in.src0) << ", @" << in.imm;
      break;
    case OpShape::kTern:
      os << " " << r(in.dst) << ", " << r(in.src0) << ", " << r(in.src1) << ", " << r(in.src2);
      break;
    case OpShape::kMem:
      if (instr_class(in.op) == InstrClass::kLoad) {
        os << " " << r(in.dst) << ", [" << r(in.src0) << "+" << in.imm << "]";
      } else {
        os << " [" << r(in.src0) << "+" << in.imm << "], " << r(in.src1);
      }
      break;
    case OpShape::kUn:
    case OpShape::kBin:
      os << " " << r(in.dst) << ", " << r(in.src0) << ", " << r(in.src1);
      break;
  }
  return os.str();
}

std::string disassemble(const KernelIR& ir) {
  std::ostringstream os;
  os << ".kernel " << ir.name << " (params=" << ir.num_params << ", regs=" << ir.num_regs
     << ", shared=" << ir.shared_bytes << "B)\n";
  for (std::size_t bi = 0; bi < ir.blocks.size(); ++bi) {
    const BasicBlock& b = ir.blocks[bi];
    os << b.label << ":  // block " << bi << ", mu = {";
    const ClassCounts mu = b.static_counts();
    bool first = true;
    for (InstrClass c : kAllInstrClasses) {
      if (mu[c] == 0) continue;
      if (!first) os << ", ";
      os << instr_class_name(c) << ":" << mu[c];
      first = false;
    }
    os << "}\n";
    for (const Instr& in : b.instrs) os << "  " << disassemble(in) << "\n";
  }
  return os.str();
}

}  // namespace sigvp
