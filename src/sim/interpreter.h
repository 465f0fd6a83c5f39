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
 * dispatch.h).  The trace and block tiers run op-major over the
 * reg-major register file through one executor, runSpan: a phase whose
 * lanes all start at one pc runs as one whole-workgroup span, each
 * micro-op over every lane before the next, with contiguous and
 * uniform memory fast paths.  A divergent branch or an atomic splits
 * that span, and the rest of the phase runs as spans over blocks of W
 * lanes (a compile-time trip count, so the compiler emits real SIMD):
 * a block that diverges again, reaches an atomic or holds mixed pcs
 * falls to the lane-major executor, and only its W lanes do.  The
 * lane-major tier is the order-defining reference; the instrumented
 * tier adds sampler recording and out-of-bounds clamping.  A sampled
 * workgroup stays on the trace or block tier, which then records each
 * memory op's lane vector and bails to the instrumented executor where
 * it would bail to lane-major.  All tiers produce bit-identical
 * buffers, statistics, coalescing samples and simulated timing.
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

    /** How an op-major span ended (see runSpan). */
    enum class SpanEnd : uint8_t
    {
        Done,    ///< every lane of the span returned
        Barrier, ///< every lane stopped at one barrier; pcs written
        Split,   ///< the span's lanes continue from their written pcs
    };

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

    /** The op-major executor's lane-major fallback for lanes
     *  [lane_begin, lane_end): runPhase, instrumented while `sampling`
     *  is set. */
    void runLanes(uint32_t lane_begin, uint32_t lane_end, uint32_t wx,
                  uint32_t wy, uint32_t wz, WorkgroupStats &ws,
                  uint32_t &done_out, uint32_t &barrier_out);

    /**
     * Execute one phase op-major over lanes [base, base + n), all at
     * start_pc: each micro-op runs across the span before the next,
     * amortizing dispatch and letting the reg-major lane vectors
     * vectorize.  N = 0 spans the whole workgroup (base 0, n =
     * localCount); N = kBlockW is one lane block with a compile-time
     * trip count.  Global memory ops take W-chunk fast paths:
     * contiguous addresses become one bounds test plus memcpy, uniform
     * addresses one load broadcast.  Returns Done or Barrier when
     * every lane of the span got there; Split when a branch diverged
     * (each lane's resume pc is written) or an atomic was reached
     * (its pc is written and the straight-line run un-charged, since
     * lane order is observable there) — the caller continues the
     * span's lanes.  TraceTier compiles the branch/atomic machinery
     * out entirely for straight-line kernels.
     */
    template <uint32_t N, bool TraceTier>
    SpanEnd runSpan(uint32_t base, uint32_t start_pc, uint32_t wx,
                    uint32_t wy, uint32_t wz, WorkgroupStats &ws);

    /**
     * Phase continuation over lane blocks of W, resuming from the
     * per-lane pcs: each block whose pcs agree runs the rest of the
     * phase as a W-lane span; blocks with mixed pcs, and spans that
     * split, fall to the lane-major executor AT BLOCK GRANULARITY
     * ONLY.  Running block b to phase end before block b+1 starts
     * preserves the lane-major executor's global atomic order exactly.
     * Tail lanes (localCount % W) always run lane-major.
     */
    void runPhaseBlocks(uint32_t wx, uint32_t wy, uint32_t wz,
                        WorkgroupStats &ws, uint32_t &done_out,
                        uint32_t &barrier_out);

    /**
     * Execute one SuperLoop (see SuperOp in microop.h) over lanes
     * [lane_begin, lane_end) to completion, iteration-major: the
     * body's intermediates stay in host registers instead of
     * round-tripping through the lane register file.  Used by the
     * op-major executor, recording a sampled workgroup's loads into
     * `sampling`; the lane-major executors run the scalar per-lane
     * loop inline (which also handles sampling and robust clamping).
     * The caller performs the transfer to the exit pc.
     */
    void execSuper(const SuperOp &sup, uint32_t pc, uint32_t lane_begin,
                   uint32_t lane_end, WorkgroupStats &ws);

    const DispatchContext *ctx = nullptr;
    const CompiledKernel *kernel = nullptr;
    uint32_t localCount = 0;
    /** Non-instrumented tier for this dispatch (effectiveExecTier). */
    ExecTier tier = ExecTier::Block;
    /** The sampler of the workgroup running on the trace/block tier,
     *  or null: those executors record every global access into it. */
    CoalesceSampler *sampling = nullptr;

    std::vector<uint32_t> regs;   ///< localCount x regCount
    std::vector<uint32_t> pcs;    ///< per-lane program counter
    std::vector<uint32_t> shared; ///< workgroup shared memory
    std::vector<LaneId> lids;     ///< per-lane local-invocation id
};

} // namespace vcb::sim

#endif // VCB_SIM_INTERPRETER_H
