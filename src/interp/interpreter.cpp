#include "interp/interpreter.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "interp/decoded.hpp"
#include "interp/tier2.hpp"
#include "run/thread_pool.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sigvp {

ClassCounts DynamicProfile::counts_from_visits(const KernelIR& ir,
                                               const std::vector<std::uint64_t>& visits) {
  SIGVP_REQUIRE(visits.size() == ir.blocks.size(), "visit vector must match block count");
  ClassCounts out;
  for (std::size_t b = 0; b < visits.size(); ++b) {
    out += ir.blocks[b].static_counts().scaled(visits[b]);
  }
  return out;
}

namespace {

using interp_detail::DecodedCache;
using interp_detail::DecodedProgram;
using interp_detail::ExecArena;
using interp_detail::run_decoded_block;
using interp_detail::run_tier2_block;
using interp_detail::Tier2Arena;
using interp_detail::Tier2Program;

/// Upper bound on canonical chunks. Chosen so an 8-wide run still has ~8
/// chunks per thread to balance uneven block costs, while per-chunk L2
/// shards stay coarse enough to be meaningful.
constexpr std::size_t kMaxChunks = 64;

/// [first_block, last_block) of canonical chunk `c` out of `chunks`, over a
/// grid of `num_blocks` row-major linear block ids. Pure function of the
/// grid — worker count never enters.
struct ChunkRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

ChunkRange chunk_range(std::uint64_t num_blocks, std::size_t chunks, std::size_t c) {
  ChunkRange r;
  r.first = num_blocks * c / chunks;
  r.last = num_blocks * (c + 1) / chunks;
  return r;
}

/// Per-thread scratch: the Tier-1 arena plus the Tier-2 slab arena, reused
/// by every chunk the thread runs. Only the tier a launch selected grows
/// anything. A chunk never starts another chunk on its own thread, so one
/// set per thread suffices.
struct ThreadArenas {
  ExecArena t1;
  Tier2Arena t2;
};

/// Derives every λ-reconstructible counter of `profile` from its merged
/// block_visits and the decoded per-block static summaries. By the
/// interpreter's documented contract (profile.hpp) these equal what
/// per-instruction counting would have produced, so the post-pass replaces
/// hundreds of millions of hot-loop increments with one pass over blocks.
void finalize_from_visits(const DecodedProgram& prog, DynamicProfile& profile) {
  for (std::size_t b = 0; b < prog.blocks.size(); ++b) {
    const auto& db = prog.blocks[b];
    const std::uint64_t lambda = profile.block_visits[b];
    if (lambda == 0) continue;
    profile.instr_counts += db.mu.scaled(lambda);
    profile.sfu_instrs += lambda * db.sfu_instrs;
    profile.sqrt_instrs += lambda * db.sqrt_instrs;
    profile.global_load_bytes += lambda * db.global_load_bytes;
    profile.global_store_bytes += lambda * db.global_store_bytes;
  }
}

/// Runs one decoded launch end to end on the tier picked by the caller
/// (`t2` null ⇒ Tier 1) and returns the finalized profile. Factored out of
/// Interpreter::run so the SIGVP_TIER_VERIFY oracle can re-execute the same
/// launch on Tier 1 without re-entering tier selection.
DynamicProfile execute_launch(const KernelIR& ir, const DecodedProgram& prog,
                              const Tier2Program* t2, const LaunchDims& dims,
                              const KernelArgs& args, AddressSpace& global,
                              const Interpreter::Options& options) {
  DynamicProfile profile;
  profile.block_visits.assign(ir.blocks.size(), 0);

  const std::uint64_t num_blocks = dims.num_blocks();
  const std::size_t chunks = Interpreter::canonical_chunks(dims);

  // Global atomics make cross-chunk memory order observable, so they force
  // serial chunk execution (which reproduces the old row-major serial
  // semantics exactly).
  const std::size_t width = prog.has_global_atomics ? 1 : options.workers;

  // Host-domain chunk spans: how the simulator's own threads spent their
  // wall-clock interpreting this launch. One pointer test when tracing is
  // off; never feeds the deterministic metrics.
  trace::Tracer* tracer = trace::Tracer::active();
  const char* const span_cat = t2 != nullptr ? "tier2" : "interp";

  // One canonical chunk, on whichever thread runs it: its own access hook,
  // its blocks serially in row-major order on the selected tier (per-block
  // observables are tier-invariant), λ/barrier counts into its private
  // profile, its span. Profiles merge below in canonical chunk order.
  // A chunk above one that already failed is skipped: parallel_for reports
  // the lowest failing chunk's error, and that one is below it.
  std::vector<DynamicProfile> chunk_profiles(chunks);
  std::atomic<std::size_t> failed_chunk{chunks};
  run::parallel_for(chunks, width, [&](std::size_t c) {
    if (c > failed_chunk.load()) return;
    thread_local ThreadArenas arenas;
    DynamicProfile& into = chunk_profiles[c];
    into.block_visits.assign(ir.blocks.size(), 0);
    const MemAccessHook hook = options.access_hook ? options.access_hook(c) : MemAccessHook{};
    const MemAccessHook* const hook_ptr = hook ? &hook : nullptr;
    const double host_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
    const ChunkRange range = chunk_range(num_blocks, chunks, c);
    try {
      for (std::uint64_t lin = range.first; lin < range.last; ++lin) {
        const auto bx = static_cast<std::uint32_t>(lin % dims.grid_x);
        const auto by = static_cast<std::uint32_t>(lin / dims.grid_x);
        if (t2 != nullptr) {
          run_tier2_block(*t2, ir, dims, args, global, hook_ptr, options.max_instrs_per_thread,
                          arenas.t2, into, bx, by);
        } else {
          run_decoded_block(prog, ir, dims, args, global, hook_ptr,
                            options.max_instrs_per_thread, options.strict_barriers, arenas.t1,
                            into, bx, by);
        }
      }
    } catch (...) {
      failed_chunk.store(c);
      throw;
    }
    if (tracer != nullptr) {
      tracer->complete(tracer->host_pid(), tracer->host_tid(), span_cat,
                       ir.name + "#" + std::to_string(c), host_t0,
                       tracer->host_now_us() - host_t0,
                       {trace::arg("chunk", static_cast<int>(c))});
    }
  });

  for (const DynamicProfile& p : chunk_profiles) {
    for (std::size_t b = 0; b < profile.block_visits.size(); ++b) {
      profile.block_visits[b] += p.block_visits[b];
    }
    profile.barriers_waited += p.barriers_waited;
  }
  finalize_from_visits(prog, profile);
  return profile;
}

}  // namespace

std::size_t Interpreter::canonical_chunks(const LaunchDims& dims) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(dims.num_blocks(), kMaxChunks));
}

bool Interpreter::uses_global_atomics(const KernelIR& ir) {
  for (const BasicBlock& b : ir.blocks) {
    for (const Instr& in : b.instrs) {
      if (op_has(in.op, kOpAtomic)) return true;
    }
  }
  return false;
}

DynamicProfile Interpreter::run(const KernelIR& ir, const LaunchDims& dims,
                                const KernelArgs& args, AddressSpace& global,
                                const Options& options) {
  SIGVP_REQUIRE(dims.grid_x > 0 && dims.grid_y > 0 && dims.block_x > 0 && dims.block_y > 0,
                "launch dimensions must be positive");
  SIGVP_REQUIRE(args.values.size() >= ir.num_params,
                ir.name + ": launch provides fewer arguments than the kernel declares");

  const std::shared_ptr<const DecodedProgram> prog = DecodedCache::instance().get(ir);

  // Tier decision: a pure function of the sim-domain launch stream (see
  // Tier2Engine::select). Launch observables are byte-exact either way.
  Tier2Engine& engine = Tier2Engine::instance();
  const std::shared_ptr<const Tier2Program> t2 =
      engine.select(ir, prog, dims, options.strict_barriers);

  if (t2 != nullptr && engine.verify()) {
    // SIGVP_TIER_VERIFY divergence oracle: snapshot memory, run Tier 2 for
    // real (access hook and all), then replay the launch from the snapshot on a
    // serial hook-free Tier 1 and insist on identical profile + memory.
    AddressSpace reference = global;
    DynamicProfile got = execute_launch(ir, *prog, t2.get(), dims, args, global, options);
    Options ref_options;
    ref_options.max_instrs_per_thread = options.max_instrs_per_thread;
    ref_options.workers = 1;
    DynamicProfile ref =
        execute_launch(ir, *prog, nullptr, dims, args, reference, ref_options);
    interp_detail::check_tier_divergence(ir, ref, got, reference, global);
    engine.note_verified();
    return got;
  }

  return execute_launch(ir, *prog, t2.get(), dims, args, global, options);
}

}  // namespace sigvp
