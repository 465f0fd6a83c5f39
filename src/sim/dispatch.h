/**
 * @file
 * Dispatch-level plumbing: buffer bindings and execution statistics.
 */

#ifndef VCB_SIM_DISPATCH_H
#define VCB_SIM_DISPATCH_H

#include <cstdint>
#include <vector>

namespace vcb::sim {

struct CompiledKernel;

/**
 * Executor tiers, fastest first.  Selection is per kernel from
 * lowering metadata (chooseExecTier) unless robust access forces the
 * instrumented tier, or a test forces one (setExecutorOverride).  A
 * sampled workgroup stays on the chosen tier; only the lane-major tier
 * hands it to the instrumented one.  Every tier produces bit-identical
 * buffers, DispatchStats and kernelNs — the tiers differ only in host
 * speed.
 */
enum class ExecTier : uint8_t
{
    /** Branch/atomic-free kernels: every phase runs op-major as one
     *  whole-workgroup span with the divergence checks compiled out. */
    Trace,
    /** Op-major over the whole workgroup; a divergent branch or an
     *  atomic splits the phase into spans over lane blocks of W, and
     *  a block that splits again runs lane-major. */
    Block,
    /** One lane at a time to phase end — the order-defining reference
     *  executor (atomics observe exactly this lane order). */
    LaneMajor,
    /** Lane-major plus sampler recording / robust clamping. */
    Instrumented,
    Count
};

/** Symbolic tier name ("trace", "block", "lane", "instrumented"). */
const char *execTierName(ExecTier t);

/** The tier setExecutorOverride forced; ExecTier::Count when none
 *  (auto). */
ExecTier executorOverride();
/** Test hook: force a tier (Count = back to auto). */
void setExecutorOverride(ExecTier t);

/** A storage buffer as seen by the interpreter: a span of words. */
struct BufferBinding
{
    uint32_t *data = nullptr;
    uint64_t words = 0;
};

/** Aggregate execution statistics of one dispatch. */
struct DispatchStats
{
    uint64_t invocations = 0;
    /** ALU issue cycles summed over all lanes (per-op cost table). */
    uint64_t laneCycles = 0;
    /** Global-memory word accesses that hit DRAM. */
    uint64_t dramAccesses = 0;
    /** Estimated DRAM line transactions (coalescing model). */
    double dramTransactions = 0;
    /** Word accesses served on-chip due to promotion. */
    uint64_t promotedAccesses = 0;
    /** Explicit shared-memory word accesses. */
    uint64_t sharedAccesses = 0;
    uint64_t atomicOps = 0;
    /** Barrier phases crossed (summed over workgroups). */
    uint64_t barriers = 0;

    // UVM paging costs of this dispatch.  The engine never writes
    // these (residency is runtime front-end state); the vkm/ocl/cuda
    // front-ends fill them in when a dispatch first touches paged
    // allocations (sim/uvm.h).
    /** Bytes migrated device-ward before this dispatch ran. */
    uint64_t migratedBytes = 0;
    /** Migration + page-fault time charged ahead of the kernel. */
    double faultNs = 0;

    /** Tier-equivalence tests demand bit-identical stats. */
    bool operator==(const DispatchStats &) const = default;
};

/** Immutable inputs of one dispatch. */
struct DispatchContext
{
    const CompiledKernel *kernel = nullptr;
    uint32_t groups[3] = {1, 1, 1};
    /** Indexed by binding number. */
    std::vector<BufferBinding> buffers;
    const uint32_t *push = nullptr;
    uint32_t pushWords = 0;
    /** Clamp out-of-bounds accesses instead of trapping. */
    bool robustAccess = false;
    /** DRAM bandwidth multiplier for this dispatch — < 1 while a UVM
     *  device's working set oversubscribes its heap (sim/uvm.h). */
    double dramDerate = 1.0;
};

/** Result of simulating one dispatch. */
struct DispatchResult
{
    /** Device-side execution time (includes dispatch fixed latency). */
    double kernelNs = 0;
    DispatchStats stats;
};

} // namespace vcb::sim

#endif // VCB_SIM_DISPATCH_H
