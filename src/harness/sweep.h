/**
 * @file
 * Worker-session pool and the sweep executor built on it.
 *
 * A SessionPool is N worker threads, each running under a private
 * ScopedDeviceRegistry copy (device state, compile-cache stats and
 * samplers never cross-contaminate), all taking tasks from one shared
 * FIFO: an idle worker takes the next task at once, so no task waits
 * behind a busy worker while another sits idle.  The serve broker
 * (src/serve/serve.h) queues requests on it, and runSweepPlan() below
 * queues plan cells on it.
 *
 * The report book and vcb_perf --suite reduce to the same shape: a
 * statically enumerable list of (device × benchmark × API × size ×
 * strategy) cells whose results are pure functions of their inputs —
 * every number they produce comes from simulated clocks, never from
 * wall time.  runSweepPlan() executes such a plan on `jobs` pool
 * workers with nested dispatch parallelism forced serial
 * (ThreadPool::ScopedSerial) so outer × inner fan-out cannot
 * oversubscribe the machine.  Because cells are independent and
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

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/device.h"

namespace vcb::harness {

/**
 * The worker-session pool (see file comment).  Exceptions escaping a
 * task are fatal (panic), matching the ThreadPool work-item contract.
 */
class SessionPool
{
  public:
    /** A queued task; receives the executing worker's index. */
    using Task = std::function<void(unsigned worker)>;

    /**
     * Spawn `workers` threads (at least one, so tasks never run on the
     * caller).  Empty `devices` = a snapshot of the calling thread's
     * activeDeviceRegistry().
     */
    SessionPool(unsigned workers, std::vector<sim::DeviceSpec> devices);

    /** Runs every queued task, then joins the workers. */
    ~SessionPool();

    SessionPool(const SessionPool &) = delete;
    SessionPool &operator=(const SessionPool &) = delete;

    /** Queue `task`; the next idle worker runs it. */
    void submit(Task task);

    /** Block until the queue is empty and no task is running. */
    void drain();

    unsigned size() const { return (unsigned)threads.size(); }

  private:
    void workerLoop(unsigned worker);

    std::vector<sim::DeviceSpec> devices_;

    std::mutex mtx;
    std::condition_variable cv;     ///< task queued, or stopping
    std::condition_variable cvIdle; ///< queue empty, none running
    std::deque<Task> queue;
    unsigned running = 0;
    bool stopping = false;

    std::vector<std::thread> threads;
};

/** How a sweep plan is executed. */
struct SweepOptions
{
    /**
     * Worker sessions: 0 = the hardware concurrency.  Workers are
     * spawned even at jobs = 1 so the execution environment (fresh
     * thread, private registry) is identical at every job count.  With
     * more than one worker, dispatches inside cells run serially.
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

/** Job count for a sweep: `requested` when >= 1, else the hardware
 *  concurrency (>= 1). */
unsigned resolveSweepJobs(unsigned requested);

/**
 * Execute fn(cell) for every cell in [0, cellCount) on a SessionPool
 * of isolated worker sessions (see file comment for the caller
 * contract).  Cells are queued in plan order; the call blocks until
 * the whole plan has run.  Exceptions escaping fn are fatal (panic).
 */
SweepStats runSweepPlan(size_t cellCount,
                        const std::function<void(size_t)> &fn,
                        const SweepOptions &opts = {});

} // namespace vcb::harness

#endif // VCB_HARNESS_SWEEP_H
