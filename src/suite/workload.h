/**
 * @file
 * The workload-program layer: one declarative host loop per benchmark,
 * three shared API runners.
 *
 * A Workload describes everything a benchmark's host side does —
 * buffers and their deterministic initial contents, a step list
 * (dispatch, barrier, host sync, upload, readback, host callback), a
 * host loop (fixed trip count or converge-until predicate) and the
 * preferred Vulkan submission strategy.  The three runners execute the
 * same program through the real runtime front-ends (vkm / ocl / cuda),
 * so the paper's cross-API comparison is made once, in one place,
 * instead of being re-implemented by every bench_*.cc driver.
 *
 * Because the submission strategy is a runner parameter rather than
 * hand-written driver code, every Vulkan benchmark whose program shape
 * permits it can be swept across strategies (the paper's Sec. V
 * launch-overhead analysis, suite-wide):
 *
 *  - RecordOnce  — record the loop body's command buffer(s) once and
 *                  resubmit every iteration (bfs, kmeans: the body is
 *                  identical per iteration, only buffer contents move);
 *  - ReRecord    — reset + re-record per iteration (required whenever
 *                  a push value is computed by the host mid-loop, e.g.
 *                  srad's q0sqr, and the paper's "naive" baseline);
 *  - Batched     — record N iterations (default: all) into one command
 *                  buffer with barriers and submit once per batch (the
 *                  paper's flagship optimisation: pathfinder, gaussian,
 *                  hotspot, lud, nw, cfd).
 *
 * OpenCL and CUDA have no command buffers; their runner issues one
 * launch per dispatch step (the multi-kernel method), with Sync steps
 * mapping to clFinish / cudaDeviceSynchronize.
 */

#ifndef VCB_SUITE_WORKLOAD_H
#define VCB_SUITE_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/device.h"
#include "spirv/module.h"

namespace vcb::suite {

/** Outcome of one benchmark execution. */
struct RunResult
{
    /** False when the configuration cannot run (missing API support,
     *  driver failure, out of memory) — skipReason says why. */
    bool ok = false;
    std::string skipReason;

    /** The paper's metric: kernel-only region on the host clock (ns),
     *  i.e. launches + kernels + synchronisation, excluding context
     *  setup, JIT, transfers and host pre/post-processing. */
    double kernelRegionNs = 0;
    /** End-to-end time including transfers (ns). */
    double totalNs = 0;
    /** Kernel launches (CL/CUDA) or recorded dispatches (Vulkan). */
    uint64_t launches = 0;

    /** Submission strategy the run used: a strategyName() for Vulkan,
     *  "per-launch" for OpenCL/CUDA. */
    std::string strategy;

    /** Compute queues the Vulkan run spread dispatches over (1 for the
     *  serial path and for OpenCL/CUDA). */
    uint32_t queuesUsed = 1;
    /** Summed device-busy time over all queues inside the kernel
     *  region (Vulkan only; 0 elsewhere).  busy/elapsed > 1 is the
     *  signature of genuine multi-queue overlap. */
    double deviceBusyNs = 0;

    /** UVM paging traffic inside the run: bytes migrated device-ward
     *  by first-touch faults, and the migration + fault time charged
     *  to the device clock.  Both 0 on non-paging devices. */
    uint64_t migratedBytes = 0;
    double faultNs = 0;

    /** Output matched the CPU reference. */
    bool validated = false;
    std::string validationError;
};

/** How the Vulkan runner turns the loop body into queue submissions. */
enum class SubmitStrategy
{
    /** Record the body's command buffer(s) once, resubmit per
     *  iteration.  Needs a uniform body with immediate push values. */
    RecordOnce = 0,
    /** Reset + re-record per iteration.  Always applicable. */
    ReRecord = 1,
    /** Record N iterations into one command buffer (barriers between),
     *  one submission per batch.  Needs a pure-device body and a fixed
     *  trip count. */
    Batched = 2,
};

/** Number of strategies (array sizing / sweeps). */
constexpr int submitStrategyCount = 3;

/** Printable strategy name ("record-once", "re-record", "batched"). */
const char *strategyName(SubmitStrategy s);

/** Mutable host-side state of a running workload: one word vector per
 *  declared host array (uploads read them, readbacks and host
 *  callbacks write them). */
using HostArrays = std::vector<std::vector<uint32_t>>;

/** One push-constant word of a dispatch: an immediate value, or a
 *  reference into a host array resolved when the dispatch is issued
 *  (recorded for Vulkan, launched for OpenCL/CUDA) — how host-computed
 *  per-iteration values like srad's q0sqr reach the kernel. */
struct PushWord
{
    uint32_t value = 0;
    size_t hostArray = SIZE_MAX; ///< SIZE_MAX = immediate
    size_t hostWord = 0;

    bool immediate() const { return hostArray == SIZE_MAX; }
};

/** Immediate push word. */
PushWord pw(uint32_t v);
/** Immediate push word from a float's bits. */
PushWord pwF(float v);
/** Host-resolved push word: host[array][word] at issue time. */
PushWord pwHost(size_t array, size_t word);

/** One step of a workload's host program. */
struct WorkloadStep
{
    enum class Kind
    {
        /** Launch kernel `kernel` over `groups` workgroups with `push`
         *  constants and `bindings` (binding number -> buffer index). */
        Dispatch,
        /** Execution dependency between dispatches.  A Vulkan pipeline
         *  barrier; implicit on the OpenCL/CUDA in-order queues. */
        Barrier,
        /** Host synchronisation point: clFinish /
         *  cudaDeviceSynchronize; ends the current Vulkan command
         *  buffer segment (submit + fence wait). */
        Sync,
        /** Copy host[hostArray] into buffer `buffer` (optionally only
         *  when host[condArray][condWord] != 0). */
        Upload,
        /** Blocking copy of buffer `buffer` into host[hostArray]
         *  (the array's current size decides the byte count). */
        Readback,
        /** Arbitrary host computation over the host arrays (centroid
         *  updates, reduction folds...).  Runs outside device time. */
        HostCall,
    };

    Kind kind = Kind::Dispatch;

    // Dispatch
    size_t kernel = 0;
    uint32_t groups[3] = {1, 1, 1};
    std::vector<PushWord> push;
    std::vector<std::pair<uint32_t, size_t>> bindings;

    // Upload / Readback
    size_t buffer = 0;
    size_t hostArray = 0;
    size_t condArray = SIZE_MAX; ///< Upload only; SIZE_MAX = always
    size_t condWord = 0;

    // HostCall
    std::function<void(HostArrays &)> fn;

    /** Indices of earlier steps in the same list this step depends on
     *  (each must be < this step's own index, so list order is a valid
     *  topological order).  Empty = conservative: after everything
     *  before it.  Only dag workloads declare deps; the serial runners
     *  (OpenCL, CUDA, single-queue Vulkan) execute in list order and
     *  ignore them. */
    std::vector<size_t> deps;
};

/** Step factories (the declarative vocabulary of bench_*.cc). */
WorkloadStep dispatchStep(size_t kernel, uint32_t gx, uint32_t gy,
                          uint32_t gz, std::vector<PushWord> push,
                          std::vector<std::pair<uint32_t, size_t>>
                              bindings);
WorkloadStep barrierStep();
WorkloadStep syncStep();
WorkloadStep uploadStep(size_t buffer, size_t host_array);
WorkloadStep uploadIfStep(size_t buffer, size_t host_array,
                          size_t cond_array, size_t cond_word);
WorkloadStep readbackStep(size_t buffer, size_t host_array);
WorkloadStep hostStep(std::function<void(HostArrays &)> fn);
/** Attach declared dependencies to a step (dag workloads). */
WorkloadStep withDeps(WorkloadStep s, std::vector<size_t> deps);

/** One device buffer of a workload. */
struct WorkloadBuffer
{
    uint64_t bytes = 0;
    /** Deterministic initial contents; empty = left zeroed.  Uploaded
     *  before the timed region (counted in totalNs only). */
    std::vector<uint32_t> init;
    /** Vulkan: allocate host-visible and keep it persistently mapped,
     *  so body uploads/readbacks are plain memory traffic (bfs's stop
     *  flag).  Ignored by OpenCL/CUDA. */
    bool hostVisible = false;
};

/**
 * A benchmark's whole host program, declared once and executed by all
 * three API runners.
 *
 * Execution model (identical on every API):
 *
 *   [create buffers, upload initial contents]         —— totalNs only
 *   t0
 *   prologue steps                                    —— kernelRegionNs
 *   for it in [0, iterations):
 *       body steps (bodyFor(it) when per-iteration)
 *       if converged && converged(host): break
 *   t1 = implicit final sync
 *   epilogue steps (result downloads)                 —— totalNs only
 *   inspect steps (intermediate downloads)            —— untimed
 *   validate(host)
 *
 * A converge-until workload (converged != nullptr) must use the
 * uniform `body` (not bodyFor) — its per-iteration work is identical
 * by construction, only buffer contents move.
 */
struct Workload
{
    std::string name;
    std::vector<spirv::Module> kernels;
    std::vector<WorkloadBuffer> buffers;
    /** Initial host-array contents (mutable run state). */
    HostArrays host;

    /** One-time steps inside the timed region (kmeans's transpose). */
    std::vector<WorkloadStep> prologue;
    /** Uniform loop body, used when bodyFor is empty. */
    std::vector<WorkloadStep> body;
    /** Per-iteration body for statically varying loops (gaussian's
     *  (n, t) pushes, hotspot's ping-pong bindings). */
    std::function<std::vector<WorkloadStep>(uint32_t)> bodyFor;
    /** Loop trip count (UINT32_MAX for converge-until loops). */
    uint32_t iterations = 1;
    /** Optional convergence predicate, checked after each iteration. */
    std::function<bool(const HostArrays &)> converged;
    /** Untimed result downloads, after the kernel region. */
    std::vector<WorkloadStep> epilogue;
    /** Readbacks of intermediate buffers that only `validate` reads
     *  (bfs's frontier masks, gaussian's multipliers).  They run after
     *  totalNs is taken, so they change no reported number. */
    std::vector<WorkloadStep> inspect;

    /** The strategy the paper's method would pick for this program —
     *  what Benchmark::run uses unless the caller overrides it. */
    SubmitStrategy preferred = SubmitStrategy::ReRecord;

    /** True when the step lists carry meaningful `deps` edges, i.e.
     *  steps with no path between them are independent and the Vulkan
     *  runner may spread them over multiple compute queues
     *  (WorkloadOptions::queueCount).  Requires a uniform body (no
     *  bodyFor) and no Barrier steps in prologue/body — ordering is
     *  expressed by the edges, not by list position. */
    bool dag = false;

    /** Compare the final host arrays against a CPU reference; empty
     *  string = validated. */
    std::function<std::string(const HostArrays &)> validate;
};

/**
 * Whether the Vulkan runner can execute `w` under strategy `s`:
 * ReRecord always; RecordOnce needs a uniform body whose pushes are
 * all immediate; Batched needs a fixed trip count and pure-device
 * bodies (dispatch/barrier/sync only, immediate pushes).
 */
bool strategyApplicable(const Workload &w, SubmitStrategy s);

/** All applicable strategies, in enum order. */
std::vector<SubmitStrategy> applicableStrategies(const Workload &w);

/** Runner options (Vulkan submission axis; OpenCL/CUDA ignore it). */
struct WorkloadOptions
{
    /** Vulkan strategy; unset = the workload's preferred. */
    std::optional<SubmitStrategy> strategy;
    /** Batched: iterations per command buffer; 0 = all in one. */
    uint32_t batchN = 0;
    /** Vulkan multi-queue mode: spread a dag workload's independent
     *  dispatch chains over up to this many compute queues (clamped to
     *  the device's computeQueueCount), joining cross-queue edges with
     *  semaphores.  0 = the serial single-queue path.  Requires
     *  Workload::dag; Batched does not apply (it submits whole
     *  iterations, leaving nothing to overlap). */
    uint32_t queueCount = 0;
};

/** Execute through the Vulkan-mini front-end.  `host_out`, when
 *  non-null, receives the final host arrays (bit-identity tests). */
RunResult runWorkloadVulkan(const Workload &w, const sim::DeviceSpec &dev,
                            const WorkloadOptions &opts = {},
                            HostArrays *host_out = nullptr);

/** Execute through the OpenCL-mini front-end (per-launch method). */
RunResult runWorkloadOcl(const Workload &w, const sim::DeviceSpec &dev,
                         HostArrays *host_out = nullptr);

/** Execute through the CUDA-mini front-end (per-launch method). */
RunResult runWorkloadCuda(const Workload &w, const sim::DeviceSpec &dev,
                          HostArrays *host_out = nullptr);

/** Dispatch on `api` (the single entry point Benchmark::run uses). */
RunResult runWorkload(const Workload &w, const sim::DeviceSpec &dev,
                      sim::Api api, const WorkloadOptions &opts = {},
                      HostArrays *host_out = nullptr);

} // namespace vcb::suite

#endif // VCB_SUITE_WORKLOAD_H
