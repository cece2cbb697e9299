#include "interp/decoded.hpp"

#include <bit>

#include "interp/op_exec.hpp"
#include "interp/superinst.hpp"
#include "util/check.hpp"

namespace sigvp::interp_detail {

namespace {

// ---------------------------------------------------------------------------
// Handlers, one per ops.def row. Operands are pre-widened slots, branch
// targets pre-resolved flat pcs, FP immediates pre-encoded register bit
// patterns. Straight-line rows run their shared body (op_exec.hpp) and step
// the pc; control flow is Tier 1's own and sets the pc itself.
// ---------------------------------------------------------------------------

template <Opcode OP>
void op_straight(ExecContext& m, ThreadState& t, const DecodedInstr& d) {
  exec_op<OP>(m, t.regs, d.dst, d.src0, d.src1, d.src2, d.imm, t.tid_x, t.tid_y);
  ++t.pc;
}

inline void take_branch(ExecContext& m, ThreadState& t, std::uint32_t pc, std::uint32_t block) {
  t.pc = pc;
  ++m.block_visits[block];
}

void op_jmp(ExecContext& m, ThreadState& t, const DecodedInstr& d) {
  take_branch(m, t, d.target_pc, d.target_block);
}

template <bool kTakenIfNonzero>
void op_bra(ExecContext& m, ThreadState& t, const DecodedInstr& d) {
  if (t.regs[d.src0].truthy() == kTakenIfNonzero) {
    take_branch(m, t, d.target_pc, d.target_block);
  } else {
    if (d.fall_pc == kInvalidPc) [[unlikely]] throw_bad_fallthrough(*m.ir);
    take_branch(m, t, d.fall_pc, d.fall_block);
  }
}
constexpr InstrFn op_bra_z = op_bra<false>;
constexpr InstrFn op_bra_nz = op_bra<true>;

void op_ret(ExecContext&, ThreadState& t, const DecodedInstr&) { t.done = true; }

void op_bar(ExecContext&, ThreadState& t, const DecodedInstr&) {
  t.at_barrier = true;
  ++t.pc;
}

constexpr InstrFn kHandlers[kNumOpcodes] = {
#define SIGVP_OP(E, ...) op_straight<Opcode::E>,
#define SIGVP_FLOW(E, id, ...) op_##id,
#include "ir/ops.def"
};

/// An opcode outside the table decodes as a nop.
InstrFn handler_for(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kNumOpcodes ? kHandlers[i] : op_straight<Opcode::kNop>;
}

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

/// Runs `t` until it retires or parks at a barrier. The budget check is a
/// single counter compare; all error formatting lives on cold paths.
inline void run_thread(ExecContext& m, ThreadState& t, std::uint64_t max_instrs) {
  const DecodedInstr* const code = m.code;
  while (!t.done && !t.at_barrier) {
    const DecodedInstr& d = code[t.pc];
    if (++t.instrs_executed > max_instrs) [[unlikely]] throw_budget_exhausted(*m.ir);
    d.fn(m, t, d);
  }
}

[[noreturn]] __attribute__((noinline, cold)) void throw_divergent_barrier(
    const KernelIR& ir, std::uint32_t ctaid_x, std::uint32_t ctaid_y, std::size_t retired,
    std::size_t waiting) {
  throw ContractError(
      "strict barrier mode: kernel '" + ir.name + "' released a barrier in block (" +
      std::to_string(ctaid_x) + "," + std::to_string(ctaid_y) + ") while " +
      std::to_string(retired) + " thread(s) had already retired and " +
      std::to_string(waiting) +
      " were waiting — some threads exited before reaching bar.sync (divergent exit)");
}

}  // namespace

void throw_budget_exhausted(const KernelIR& ir) {
  sigvp::detail::raise_contract_error(
      "precondition", "instrs_executed <= max_instrs_per_thread", __FILE__, __LINE__,
      ir.name + ": per-thread instruction budget exhausted");
}

void throw_shared_oob(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("precondition", "shared access in bounds", __FILE__,
                                      __LINE__, ir.name + ": shared-memory access out of bounds");
}

void throw_zero_divisor(const KernelIR& ir, Opcode op) {
  sigvp::detail::raise_contract_error(
      "precondition", "divisor != 0", __FILE__, __LINE__,
      ir.name + (op == Opcode::kRemI ? ": integer remainder by zero"
                                     : ": integer division by zero"));
}

void throw_bad_param(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("precondition", "param index < argument count", __FILE__,
                                      __LINE__,
                                      ir.name + ": kernel launched with too few arguments");
}

void throw_bad_fallthrough(const KernelIR& ir) {
  sigvp::detail::raise_contract_error("invariant", "fallthrough block exists", __FILE__,
                                      __LINE__, ir.name + ": branch to nonexistent block");
}

BlockCtx block_ctx(const KernelIR& ir, const LaunchDims& dims, const KernelArgs& args,
                   AddressSpace& global, const MemAccessHook* hook, DynamicProfile& profile,
                   std::vector<std::uint8_t>& shared, std::uint32_t ctaid_x,
                   std::uint32_t ctaid_y) {
  shared.assign(ir.shared_bytes, 0);
  BlockCtx m;
  m.dims = dims;
  m.argv = args.values.data();
  m.argc = args.values.size();
  m.global = &global;
  m.hook = hook;
  m.block_visits = profile.block_visits.data();
  m.shared = shared.data();
  m.shared_size = shared.size();
  m.ctaid_x = ctaid_x;
  m.ctaid_y = ctaid_y;
  m.ir = &ir;
  return m;
}

std::uint64_t kernel_fingerprint(const KernelIR& ir) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv1a(h, ir.num_params);
  fnv1a(h, ir.num_regs);
  fnv1a(h, ir.shared_bytes);
  fnv1a(h, ir.blocks.size());
  for (const BasicBlock& b : ir.blocks) {
    fnv1a(h, b.instrs.size());
    for (const Instr& in : b.instrs) {
      fnv1a(h, static_cast<std::uint64_t>(in.op) | (static_cast<std::uint64_t>(in.dst) << 8) |
                   (static_cast<std::uint64_t>(in.src0) << 16) |
                   (static_cast<std::uint64_t>(in.src1) << 24) |
                   (static_cast<std::uint64_t>(in.src2) << 32));
      fnv1a(h, std::bit_cast<std::uint64_t>(in.imm));
      fnv1a(h, std::bit_cast<std::uint64_t>(in.fimm));
    }
  }
  return h;
}

std::shared_ptr<const DecodedProgram> decode_kernel(const KernelIR& ir) {
  SIGVP_REQUIRE(!ir.blocks.empty(), ir.name + ": kernel has no blocks");

  auto prog = std::make_shared<DecodedProgram>();
  prog->num_regs = ir.num_regs == 0 ? 1 : ir.num_regs;
  prog->fingerprint = kernel_fingerprint(ir);

  // Pass 1: flatten, record block boundaries and static per-block summaries.
  prog->blocks.resize(ir.blocks.size());
  std::size_t total = 0;
  for (const BasicBlock& b : ir.blocks) total += b.instrs.size();
  prog->code.reserve(total);

  for (std::size_t bi = 0; bi < ir.blocks.size(); ++bi) {
    const BasicBlock& b = ir.blocks[bi];
    DecodedBlock& db = prog->blocks[bi];
    db.first_pc = static_cast<std::uint32_t>(prog->code.size());
    db.num_instrs = static_cast<std::uint32_t>(b.instrs.size());
    db.mu = b.static_counts();
    SIGVP_REQUIRE(!b.instrs.empty() && is_terminator(b.instrs.back().op),
                  ir.name + ": pc ran past the end of a block");
    for (const Instr& in : b.instrs) {
      DecodedInstr d;
      d.op = in.op;
      d.fn = handler_for(in.op);
      d.dst = in.dst;
      d.src0 = in.src0;
      d.src1 = in.src1;
      d.src2 = in.src2;
      d.imm = in.imm;
      // Pre-encode FP immediates as destination bit patterns: all three
      // mov.imm rows then share one value expression.
      if (in.op == Opcode::kMovImmF32) {
        d.imm = static_cast<std::int64_t>(
            std::bit_cast<std::uint32_t>(static_cast<float>(in.fimm)));
      } else if (in.op == Opcode::kMovImmF64) {
        d.imm = std::bit_cast<std::int64_t>(in.fimm);
      }
      const OpTraits k = op_traits(in.op);
      if (k.flags & kOpAtomic) prog->has_global_atomics = true;
      if (k.flags & kOpSqrt) {
        ++db.sqrt_instrs;
      } else if (k.flags & kOpSfu) {
        ++db.sfu_instrs;
      }
      if (k.flags & kOpGlobal) {  // stores and atomics count as store traffic
        (k.cls == InstrClass::kLoad ? db.global_load_bytes : db.global_store_bytes) += k.width;
      }
      prog->code.push_back(d);
    }
  }

  // Pass 2: resolve branch targets to flat pcs.
  const auto nblocks = ir.blocks.size();
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const DecodedBlock& db = prog->blocks[bi];
    for (std::uint32_t k = 0; k < db.num_instrs; ++k) {
      DecodedInstr& d = prog->code[db.first_pc + k];
      if (!is_branch_with_target(d.op)) continue;
      const auto target = static_cast<std::size_t>(d.imm);
      SIGVP_REQUIRE(target < nblocks, ir.name + ": branch to nonexistent block");
      d.target_pc = prog->blocks[target].first_pc;
      d.target_block = static_cast<std::uint32_t>(target);
      if (bi + 1 < nblocks) {
        d.fall_pc = prog->blocks[bi + 1].first_pc;
        d.fall_block = static_cast<std::uint32_t>(bi + 1);
      } else {
        d.fall_pc = kInvalidPc;
        d.fall_block = 0;
      }
    }
  }
  return prog;
}

DecodedCache& DecodedCache::instance() {
  static DecodedCache cache;
  return cache;
}

namespace {

std::size_t decoded_bytes(const DecodedProgram& prog) {
  return prog.code.size() * sizeof(DecodedInstr) +
         prog.blocks.size() * sizeof(DecodedBlock);
}

}  // namespace

std::shared_ptr<const DecodedProgram> DecodedCache::get(const KernelIR& ir) {
  const std::uint64_t fp = kernel_fingerprint(ir);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(&ir);
    if (it != map_.end() && it->second.decoded->fingerprint == fp) return it->second.decoded;
  }
  // Decode outside the lock: concurrent launches of distinct kernels decode
  // in parallel; a rare duplicate decode of the same kernel is harmless.
  std::shared_ptr<const DecodedProgram> prog = decode_kernel(ir);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = map_.try_emplace(&ir);
  // Lost a race to a concurrent decode of the same kernel: keep the winner.
  if (!inserted && it->second.decoded->fingerprint == fp) return it->second.decoded;
  // A stale entry is replaced in place, keeping the key's original FIFO
  // position so eviction order stays a function of first insertion; its
  // lowerings belong to the old decode and go with it.
  if (inserted) fifo_.push_back(&ir);
  cur_bytes_ -= it->second.bytes;
  it->second = Entry{prog, {}, decoded_bytes(*prog)};
  cur_bytes_ += it->second.bytes;
  evict_to_cap_locked();
  return prog;
}

DecodedCache::Lowered DecodedCache::lowered(const KernelIR& ir,
                                            const std::shared_ptr<const DecodedProgram>& prog,
                                            unsigned stride_shift) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(&ir);
    if (it != map_.end() && it->second.decoded == prog &&
        stride_shift < it->second.lowered.size() && it->second.lowered[stride_shift]) {
      return {it->second.lowered[stride_shift], false};
    }
  }
  // Lower outside the lock (deterministic, so a rare duplicate lowering of
  // the same kernel is identical work; only the one kept counts as compiled).
  std::shared_ptr<const Tier2Program> prog2 = lower_program(*prog, stride_shift);
  if (prog2 == nullptr) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(&ir);
  // Evicted or re-decoded meanwhile: run this lowering uncached.
  if (it == map_.end() || it->second.decoded != prog) return {prog2, true};
  Entry& e = it->second;
  if (stride_shift >= e.lowered.size()) e.lowered.resize(stride_shift + 1);
  if (e.lowered[stride_shift]) return {e.lowered[stride_shift], false};  // lost the race
  e.lowered[stride_shift] = prog2;
  e.bytes += prog2->mem_bytes();
  cur_bytes_ += prog2->mem_bytes();
  evict_to_cap_locked();
  return {prog2, true};
}

void DecodedCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  fifo_.clear();
  fifo_head_ = 0;
  cur_bytes_ = 0;
}

std::size_t DecodedCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::uint64_t DecodedCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void DecodedCache::set_capacity(std::size_t max_entries, std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
  evict_to_cap_locked();
}

void DecodedCache::evict_to_cap_locked() {
  while (map_.size() > max_entries_ || cur_bytes_ > max_bytes_) {
    if (fifo_head_ >= fifo_.size()) break;  // invariant: never reached
    const KernelIR* victim = fifo_[fifo_head_++];
    auto it = map_.find(victim);
    if (it != map_.end()) {
      cur_bytes_ -= it->second.bytes;
      map_.erase(it);
      ++evictions_;
    }
  }
  // Amortized compaction of the consumed FIFO prefix.
  if (fifo_head_ > 64 && fifo_head_ * 2 > fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
}

void run_decoded_block(const DecodedProgram& prog, const KernelIR& ir, const LaunchDims& dims,
                       const KernelArgs& args, AddressSpace& global, const MemAccessHook* hook,
                       std::uint64_t max_instrs_per_thread, bool strict_barriers,
                       ExecArena& arena, DynamicProfile& profile, std::uint32_t ctaid_x,
                       std::uint32_t ctaid_y) {
  const std::uint64_t nthreads = dims.threads_per_block();
  const std::uint32_t nregs = prog.num_regs;

  // Arena reuse: these assignments recycle the previous block's capacity.
  arena.threads.resize(static_cast<std::size_t>(nthreads));
  arena.regs.assign(static_cast<std::size_t>(nthreads) * nregs, RegValue{});
  ExecContext m;
  static_cast<BlockCtx&>(m) =
      block_ctx(ir, dims, args, global, hook, profile, arena.shared, ctaid_x, ctaid_y);
  m.code = prog.code.data();

  for (std::uint32_t ty = 0; ty < dims.block_y; ++ty) {
    for (std::uint32_t tx = 0; tx < dims.block_x; ++tx) {
      ThreadState& t = arena.threads[static_cast<std::size_t>(ty) * dims.block_x + tx];
      t.regs = arena.regs.data() +
               (static_cast<std::size_t>(ty) * dims.block_x + tx) * nregs;
      t.pc = 0;  // entry block starts at flat pc 0
      t.done = false;
      t.at_barrier = false;
      t.tid_x = tx;
      t.tid_y = ty;
      t.instrs_executed = 0;
      ++m.block_visits[0];  // λ of the entry block, one per thread
    }
  }

  // Barrier-phase scheduling: run each runnable thread until it retires or
  // parks at a barrier; release the barrier when no runnable thread is left.
  while (true) {
    for (ThreadState& t : arena.threads) {
      if (t.done || t.at_barrier) continue;
      run_thread(m, t, max_instrs_per_thread);
    }
    std::size_t waiting = 0;
    std::size_t retired = 0;
    for (const ThreadState& t : arena.threads) {
      if (t.done) {
        ++retired;
      } else if (t.at_barrier) {
        ++waiting;
      }
    }
    if (waiting == 0) break;
    // All non-retired threads are parked: the barrier releases. CUDA's
    // exited-thread rule makes this legal, but a kernel where some threads
    // retire before a barrier their siblings still reach is usually a
    // divergent-exit bug — strict mode turns the silent release into a
    // diagnostic instead of masking it.
    if (strict_barriers && retired > 0) {
      throw_divergent_barrier(ir, ctaid_x, ctaid_y, retired, waiting);
    }
    for (ThreadState& t : arena.threads) t.at_barrier = false;
    ++profile.barriers_waited;
  }
}

}  // namespace sigvp::interp_detail
