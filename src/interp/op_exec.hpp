#pragma once

// The straight-line op bodies both tiers execute, expanded from ir/ops.def:
// each register op's value expression, the one global-access and the one
// shared-access helper, the special-register and parameter reads, and the
// zero-divisor trap. Tier-1 handlers, Tier-2 labels, the vector prologue and
// the fused superinstructions all call exec_op / eval, so an op's semantics
// are written exactly once.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "interp/decoded.hpp"

#define SIGVP_INLINE [[gnu::always_inline]] inline

namespace sigvp::interp_detail {

/// out = the ops.def value expression of register op OP.
template <Opcode OP>
void eval(RegValue& out, RegValue a, RegValue b, RegValue c, std::int64_t imm);

#define SIGVP_ALU(E, id, text, cls, shape, flags, set, ...)                                     \
  template <>                                                                                 \
  SIGVP_INLINE void eval<Opcode::E>(RegValue & out, [[maybe_unused]] const RegValue a,        \
                                    [[maybe_unused]] const RegValue b,                        \
                                    [[maybe_unused]] const RegValue c,                        \
                                    [[maybe_unused]] const std::int64_t imm) {                \
    out.set_##set(__VA_ARGS__);                                                               \
  }
#include "ir/ops.def"

/// C++ type moved by memory op OP.
template <Opcode OP>
struct MemType;

#define SIGVP_MEM(E, id, text, cls, flags, type) \
  template <>                                    \
  struct MemType<Opcode::E> {                    \
    using T = type;                              \
  };
#include "ir/ops.def"

/// Register <-> memory value: floats by bit pattern, signed integers
/// sign-extended (truncated on the way back), unsigned ones zero-extended.
template <class T>
SIGVP_INLINE T from_reg(RegValue r) {
  if constexpr (std::is_same_v<T, float>) {
    return r.f32();
  } else if constexpr (std::is_same_v<T, double>) {
    return r.f64();
  } else {
    return static_cast<T>(r.bits);
  }
}

template <class T>
SIGVP_INLINE void to_reg(RegValue& r, T v) {
  if constexpr (std::is_same_v<T, float>) {
    r.set_f32(v);
  } else if constexpr (std::is_same_v<T, double>) {
    r.set_f64(v);
  } else if constexpr (std::is_signed_v<T>) {
    r.set_i(v);
  } else {
    r.bits = v;
  }
}

/// The global-access helper: fires the observer hook for the `bytes`-wide
/// access at `addr` (before the access, so a store observer still sees the
/// pre-store bytes) and hands back the space to access.
SIGVP_INLINE AddressSpace& global_at(const BlockCtx& m, std::uint64_t addr, std::uint32_t bytes,
                                     bool is_store) {
  if (m.hook) (*m.hook)(addr, bytes, is_store);
  return *m.global;
}

/// The shared-access helper: the block scratchpad's bytes of a T at `addr`.
template <class T>
SIGVP_INLINE std::uint8_t* shared_at(const BlockCtx& m, std::uint64_t addr) {
  if (addr + sizeof(T) > m.shared_size || addr + sizeof(T) < addr) [[unlikely]] {
    throw_shared_oob(*m.ir);
  }
  return m.shared + addr;
}

/// Special register `sr` of thread (tid_x, tid_y) of the current block.
SIGVP_INLINE std::uint64_t special_value(const BlockCtx& m, SpecialReg sr, std::uint32_t tid_x,
                                         std::uint32_t tid_y) {
  switch (sr) {
    case SpecialReg::kTidX: return tid_x;
    case SpecialReg::kTidY: return tid_y;
    case SpecialReg::kCtaidX: return m.ctaid_x;
    case SpecialReg::kCtaidY: return m.ctaid_y;
    case SpecialReg::kNtidX: return m.dims.block_x;
    case SpecialReg::kNtidY: return m.dims.block_y;
    case SpecialReg::kNctaidX: return m.dims.grid_x;
    case SpecialReg::kNctaidY: return m.dims.grid_y;
  }
  return 0;
}

/// Kernel parameter `index`; a launch with too few arguments raises.
SIGVP_INLINE std::uint64_t param_value(const BlockCtx& m, std::int64_t index) {
  if (static_cast<std::size_t>(index) >= m.argc) [[unlikely]] throw_bad_param(*m.ir);
  return m.argv[static_cast<std::size_t>(index)];
}

/// Body of straight-line op OP (every row but SIGVP_FLOW) on register file
/// `r`. `dst`/`a`/`b`/`c` index `r`: register numbers on Tier 1, pre-scaled
/// SoA slot offsets on Tier 2.
template <Opcode OP>
SIGVP_INLINE void exec_op(const BlockCtx& m, RegValue* r, std::uint32_t dst, std::uint32_t a,
                          std::uint32_t b, std::uint32_t c, std::int64_t imm,
                          std::uint32_t tid_x, std::uint32_t tid_y) {
  constexpr OpTraits k = op_traits(OP);
  static_assert((k.flags & (kOpTerminator | kOpBarrier)) == 0, "control flow is per tier");
  if constexpr (OP == Opcode::kNop) {
  } else if constexpr (OP == Opcode::kReadSpecial) {
    r[dst].bits = special_value(m, static_cast<SpecialReg>(imm), tid_x, tid_y);
  } else if constexpr (OP == Opcode::kLdParam) {
    r[dst].bits = param_value(m, imm);
  } else if constexpr (k.shape == OpShape::kMem) {
    using T = typename MemType<OP>::T;
    const std::uint64_t addr = r[a].bits + static_cast<std::uint64_t>(imm);
    if constexpr ((k.flags & kOpShared) != 0) {
      std::uint8_t* const p = shared_at<T>(m, addr);
      if constexpr (k.cls == InstrClass::kLoad) {
        T v{};
        std::memcpy(&v, p, sizeof(T));
        to_reg(r[dst], v);
      } else {
        const T v = from_reg<T>(r[b]);
        std::memcpy(p, &v, sizeof(T));
      }
    } else if constexpr (k.cls == InstrClass::kLoad) {
      to_reg(r[dst], global_at(m, addr, sizeof(T), false).read<T>(addr));
    } else if constexpr ((k.flags & kOpAtomic) != 0) {
      // Read-modify-write observed as one store; integer sums wrap.
      AddressSpace& g = global_at(m, addr, sizeof(T), true);
      const T old = g.read<T>(addr);
      if constexpr (std::is_integral_v<T>) {
        g.write<T>(addr, static_cast<T>(static_cast<std::uint64_t>(old) + r[b].bits));
      } else {
        g.write<T>(addr, old + from_reg<T>(r[b]));
      }
      to_reg(r[dst], old);
    } else {
      global_at(m, addr, sizeof(T), true).write<T>(addr, from_reg<T>(r[b]));
    }
  } else {
    if constexpr ((k.flags & kOpTrapZero) != 0) {
      if (r[b].bits == 0) [[unlikely]] throw_zero_divisor(*m.ir, OP);
    }
    eval<OP>(r[dst], r[a], r[b], r[c], imm);
  }
}

}  // namespace sigvp::interp_detail
