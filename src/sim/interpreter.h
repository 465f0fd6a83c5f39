/**
 * @file
 * The kernel interpreter: functional execution of one workgroup.
 *
 * Invocations are interpreted over the kernel's micro-op lowering
 * (see microop.h).  Workgroup barriers are handled by phased
 * execution: every lane runs until its next Barrier (or Ret), then all
 * lanes resume — equivalent to lockstep execution for data-race-free
 * kernels, which is what every supported programming model requires
 * anyway.  Mixed barrier arrival (some lanes done, some at a barrier)
 * is the undefined behaviour all three real APIs document; the
 * simulator traps it.
 *
 * Four executor tiers share the phase loop (see ExecTier in
 * dispatch.h): the trace and block tiers run lanes in fixed-width
 * blocks of W over the reg-major register file — per-op loops with a
 * compile-time trip count so the compiler emits real SIMD, contiguous
 * and uniform memory fast paths, and per-block divergence containment
 * (a divergent branch or atomic bails only the affected W lanes to the
 * lane-major executor).  The lane-major tier is the order-defining
 * reference; the instrumented tier adds sampler recording and
 * out-of-bounds clamping.  All tiers produce bit-identical buffers,
 * statistics and simulated timing.
 *
 * Global-memory words are accessed through relaxed std::atomic_ref so
 * that independent workgroups can be interpreted on different host
 * threads without UB (benign same-value flag races, e.g. bfs's stop
 * flag, behave exactly as on real hardware).
 */

#ifndef VCB_SIM_INTERPRETER_H
#define VCB_SIM_INTERPRETER_H

#include <cstdint>
#include <vector>

#include "sim/dispatch.h"
#include "sim/kernel.h"
#include "sim/sampler.h"

namespace vcb::sim {

/** Per-workgroup statistics, merged into DispatchStats by the engine. */
struct WorkgroupStats
{
    uint64_t laneCycles = 0;
    uint64_t sharedAccesses = 0;
    uint64_t atomicOps = 0;
    uint64_t barriers = 0;
    uint64_t invocations = 0;
    /** Workgroups run per executor tier (indexed by ExecTier).  Merged
     *  into the engine's process-wide counters, NOT DispatchStats:
     *  tier choice must never change simulation results. */
    uint64_t tierWorkgroups[static_cast<size_t>(ExecTier::Count)] = {};
    /** Global-memory accesses per site (sized kernel.numSites). */
    std::vector<uint64_t> siteExec;
};

/**
 * Reusable workgroup executor.  One instance must only be used by one
 * thread at a time; the engine keeps one per worker thread for the
 * duration of a dispatch.
 */
class Interpreter
{
  public:
    Interpreter() = default;

    /** Point the interpreter at a dispatch (cheap when unchanged). */
    void prepare(const DispatchContext &ctx);

    /**
     * Execute workgroup (wx, wy, wz) to completion, accumulating into
     * ws (whose siteExec must be pre-sized).  When sampler is non-null
     * this workgroup's memory accesses are recorded for coalescing
     * estimation.
     */
    void runWorkgroup(uint32_t wx, uint32_t wy, uint32_t wz,
                      WorkgroupStats &ws, CoalesceSampler *sampler);

  private:
    struct LaneId
    {
        uint32_t x, y, z;
    };

    /** Lane-block width W of the block/trace tiers.  Widths 4 and 16
     *  measured no faster on the full mix. */
    static constexpr uint32_t kBlockW = 8;

    /**
     * Execute one barrier phase lane-by-lane for lanes in
     * [lane_begin, lane_end): every lane runs from pcs[lane] until Ret
     * or Barrier; counts of each outcome are ACCUMULATED into the out
     * params so block executors can bail lane ranges into it.
     * Instrumented adds sampler recording and robust-access clamping.
     */
    template <bool Instrumented>
    void runPhase(uint32_t lane_begin, uint32_t lane_end, uint32_t wx,
                  uint32_t wy, uint32_t wz, WorkgroupStats &ws,
                  CoalesceSampler *sampler, uint32_t &done_out,
                  uint32_t &barrier_out);

    /**
     * Execute one phase op-major over the whole workgroup: every lane
     * is at start_pc and each micro-op runs across all lanes before
     * the next, amortizing dispatch over the workgroup and letting the
     * reg-major lane vectors vectorize.  Memory ops take per-W-block
     * fast paths: contiguous addresses become a single bounds test
     * plus memcpy, uniform addresses one load broadcast.  On a
     * divergent branch the per-lane pcs are written and the rest of
     * the phase continues in runPhaseBlocks (divergence containment at
     * W-lane granularity); ops whose lane order is observable
     * (atomics) bail the same way and serialize block by block.
     * TraceTier compiles the branch/atomic machinery out entirely for
     * straight-line kernels: the whole dispatch body is one fused
     * op-major loop.
     */
    template <uint32_t W, bool TraceTier>
    void runPhaseWg(uint32_t start_pc, uint32_t wx, uint32_t wy,
                    uint32_t wz, WorkgroupStats &ws, uint32_t &done_out,
                    uint32_t &barrier_out);

    /**
     * Phase continuation over fixed-width lane blocks, resuming from
     * the per-lane pcs: each block of W lanes whose pcs agree runs the
     * rest of the phase in lockstep (compile-time trip count W over
     * contiguous lane vectors — real SIMD); blocks with mixed pcs, and
     * blocks that diverge again or reach an atomic, fall to the
     * lane-major executor AT BLOCK GRANULARITY ONLY.  Running block b
     * to phase end before block b+1 starts preserves the lane-major
     * executor's global atomic order exactly.  Tail lanes (localCount
     * % W) always run lane-major.
     */
    template <uint32_t W>
    void runPhaseBlocks(uint32_t wx, uint32_t wy, uint32_t wz,
                        WorkgroupStats &ws, uint32_t &done_out,
                        uint32_t &barrier_out);

    /**
     * Execute one superop (see SuperKind in microop.h) over lanes
     * [lane_begin, lane_end) as a fused per-lane loop: the run's
     * intermediates stay in host registers instead of round-tripping
     * through the lane register file.  Used by the trace/block
     * executors; the lane-major executors run the scalar per-lane
     * case inline (which also handles sampling and robust clamping).
     */
    void execSuper(const SuperOp &sup, uint32_t pc, uint32_t lane_begin,
                   uint32_t lane_end, WorkgroupStats &ws);

    const DispatchContext *ctx = nullptr;
    const CompiledKernel *kernel = nullptr;
    uint32_t localCount = 0;
    /** Non-instrumented tier for this dispatch (effectiveExecTier). */
    ExecTier tier = ExecTier::Block;

    std::vector<uint32_t> regs;   ///< localCount x regCount
    std::vector<uint32_t> pcs;    ///< per-lane program counter
    std::vector<uint32_t> shared; ///< workgroup shared memory
    std::vector<LaneId> lids;     ///< per-lane local-invocation id
};

} // namespace vcb::sim

#endif // VCB_SIM_INTERPRETER_H
