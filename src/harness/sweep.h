/**
 * @file
 * Sweep executor: run a flat plan of independent cells on a pool of
 * isolated engine sessions.
 *
 * The report book, vcb_perf --suite and vcb_load's in-process mode all
 * reduce to the same shape: a statically enumerable list of
 * (device × benchmark × API × size × strategy) cells whose results are
 * pure functions of their inputs — every number they produce comes
 * from simulated clocks, never from wall time.  runSweepPlan()
 * executes such a plan on `jobs` worker threads, each owning a private
 * ScopedDeviceRegistry session (device state, compile-cache stats and
 * samplers never cross-contaminate) with nested dispatch parallelism
 * forced serial (ThreadPool::ScopedSerial) so outer × inner fan-out
 * cannot oversubscribe the machine.  Because cells are independent and
 * deterministic, and callers merge results by plan position, output is
 * byte-identical at ANY job count — jobs only moves wall time.
 *
 * Caller contract:
 *  - Preallocate one result slot per cell; the cell function writes
 *    only its own slot.  Merging in plan order is then structural.
 *  - Resolve devices INSIDE the cell against the worker's registry
 *    (sim::activeDeviceRegistry()[i]); never capture DeviceSpec
 *    references across the plan/execute boundary.  The Vulkan
 *    front-end resolves specs by object identity, so a cell must use
 *    the executing thread's own copy.
 */

#ifndef VCB_HARNESS_SWEEP_H
#define VCB_HARNESS_SWEEP_H

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/device.h"

namespace vcb::harness {

/** How a sweep plan is executed. */
struct SweepOptions
{
    /**
     * Worker sessions: 0 = resolve from VCB_REPORT_JOBS, falling back
     * to the hardware concurrency.  Workers are spawned even at
     * jobs = 1 so the execution environment (fresh thread, private
     * registry) is identical at every job count.  With more than one
     * worker, dispatches inside cells run serially.
     */
    unsigned jobs = 0;

    /**
     * Registry installed in every worker session.  Empty = snapshot
     * the calling thread's activeDeviceRegistry() at execution start;
     * workers always run under a private copy either way.
     */
    std::vector<sim::DeviceSpec> devices;
};

/** Wall/sim-time ledger of one executed plan. */
struct SweepStats
{
    unsigned jobs = 1;    ///< Worker sessions actually used.
    size_t cells = 0;     ///< Plan length.
    double wallMs = 0.0;  ///< Whole-plan wall time (spawn..join).
    /** Per-cell wall time, plan order. */
    std::vector<double> cellWallMs;
    /** Per-cell simulator time (engine dispatch wall on the worker). */
    std::vector<double> cellSimMs;
    /** Executing worker slot per cell (tests / diagnostics). */
    std::vector<unsigned> cellWorker;
};

/**
 * Job count for a sweep: `requested` when >= 1, else VCB_REPORT_JOBS
 * when set and valid (1..256), else the hardware concurrency (>= 1).
 */
unsigned resolveSweepJobs(unsigned requested);

/**
 * Execute fn(cell) for every cell in [0, cellCount) on a pool of
 * isolated worker sessions (see file comment for the caller
 * contract).  Cells are claimed dynamically in plan order; the call
 * blocks until the whole plan has run.  Exceptions escaping fn are
 * fatal (panic), matching the ThreadPool work-item contract.
 */
SweepStats runSweepPlan(size_t cellCount,
                        const std::function<void(size_t)> &fn,
                        const SweepOptions &opts = {});

} // namespace vcb::harness

#endif // VCB_HARNESS_SWEEP_H
