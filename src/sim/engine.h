/**
 * @file
 * The execution engine: functionally executes a dispatch across all
 * workgroups and produces its simulated device time.
 *
 * dispatch() interprets a few spread-out workgroups first with the
 * coalescing sampler attached, then fans the remaining workgroups out
 * over ThreadPool::parallelForRange.  Every workgroup runs the
 * kernel's selected executor tier (trace / block-lockstep over lane
 * blocks of W, bailing divergent or atomic blocks to lane-major — see
 * ExecTier in src/sim/dispatch.h, src/sim/interpreter.cc and
 * docs/ARCHITECTURE.md).  Workgroups are independent in every
 * supported programming model, so parallel interpretation preserves
 * results for valid kernels; per-worker statistics merge once per
 * dispatch, so no lock sits on the per-workgroup path.
 */

#ifndef VCB_SIM_ENGINE_H
#define VCB_SIM_ENGINE_H

#include <string>
#include <vector>

#include "sim/device.h"
#include "sim/dispatch.h"
#include "sim/kernel.h"

namespace vcb::sim {

/**
 * Process-wide count of workgroups executed by all engines, for perf
 * tooling (tools/vcb_perf): sample before/after a run to derive
 * workgroups-per-second.  Monotonic, never reset.
 */
uint64_t executedWorkgroupCount();

/**
 * Process-wide wall-clock nanoseconds spent inside
 * ExecutionEngine::dispatch — the simulator's own execution time,
 * excluding host-side workload generation, reference computation and
 * validation.  Monotonic, never reset; the companion to
 * executedWorkgroupCount() for throughput measurement.
 */
uint64_t dispatchWallNs();

/**
 * Wall-clock nanoseconds spent inside dispatch() by the CALLING
 * thread.  dispatch() joins its thread-pool fan-out before returning,
 * so the full dispatch duration elapses on the caller — this counter
 * therefore partitions dispatchWallNs() by dispatching thread.  The
 * sweep executor samples it around each cell to attribute simulator
 * time per cell without a process-wide reset.
 */
uint64_t dispatchWallNsThisThread();

/**
 * Process-wide count of workgroups run on one executor tier, for perf
 * tooling (vcb_perf's per-tier breakdown).  Like
 * executedWorkgroupCount(): monotonic, never reset, and deliberately
 * OUTSIDE DispatchStats — tier choice must never affect simulation
 * results.  A workgroup counts toward the tier it was dispatched on
 * even when some of its lane blocks bailed to the lane-major executor.
 */
uint64_t tierWorkgroupCount(ExecTier t);

/** One dispatch as ExecutionEngine::dispatch returned it (before a
 *  front-end adds UVM paging charges to the stats). */
struct RecordedDispatch
{
    std::string kernel;
    uint64_t workgroups = 0;
    DispatchStats stats;
    double kernelNs = 0;
};

/**
 * Test hook: while alive, every ExecutionEngine::dispatch on the
 * constructing thread appends its kernel name, DispatchStats and
 * kernelNs to `dispatches`, in issue order.  The vkm, ocl and cuda
 * front-ends all dispatch on the thread that submits, so a recorder
 * held around one suite::runWorkload call sees exactly that run.
 * A nested recorder captures until it dies, then the outer resumes.
 */
class DispatchRecorder
{
  public:
    DispatchRecorder();
    ~DispatchRecorder();
    DispatchRecorder(const DispatchRecorder &) = delete;
    DispatchRecorder &operator=(const DispatchRecorder &) = delete;

    std::vector<RecordedDispatch> dispatches;

  private:
    DispatchRecorder *outer;
};

/** Per-device dispatch executor. */
class ExecutionEngine
{
  public:
    explicit ExecutionEngine(const DeviceSpec &dev) : dev(dev) {}

    /**
     * Execute the kernel over a (gx, gy, gz) grid.
     *
     * @param ctx dispatch inputs; ctx.kernel/buffers must be populated.
     * @return simulated device time (including fixed dispatch latency
     *         and the driver's per-dispatch setup) plus statistics.
     */
    DispatchResult dispatch(const DispatchContext &ctx);

    const DeviceSpec &device() const { return dev; }

  private:
    const DeviceSpec &dev;
};

} // namespace vcb::sim

#endif // VCB_SIM_ENGINE_H
