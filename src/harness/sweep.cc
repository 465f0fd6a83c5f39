#include "harness/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "common/logging.h"
#include "common/threadpool.h"
#include "sim/engine.h"

namespace vcb::harness {

SessionPool::SessionPool(unsigned workers,
                         std::vector<sim::DeviceSpec> devices)
    : devices_(devices.empty() ? sim::activeDeviceRegistry()
                               : std::move(devices))
{
    workers = std::max(workers, 1u);
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back([this, w] { workerLoop(w); });
}

SessionPool::~SessionPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        stopping = true;
    }
    cv.notify_all();
    for (auto &t : threads)
        t.join();
}

void
SessionPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        queue.push_back(std::move(task));
    }
    cv.notify_one();
}

void
SessionPool::drain()
{
    std::unique_lock<std::mutex> lk(mtx);
    cvIdle.wait(lk, [&] { return queue.empty() && running == 0; });
}

void
SessionPool::workerLoop(unsigned worker)
{
    // The worker's private registry for the lifetime of the thread.
    // Every front-end lookup in its tasks (vkm physical devices, OpenCL
    // platform list) resolves against these objects and no others.
    sim::ScopedDeviceRegistry session{devices_};
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lk(mtx);
            cv.wait(lk, [&] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
            ++running;
        }
        // Same fatal-on-throw contract as ThreadPool work items: a task
        // that throws is a harness bug, and letting it escape a worker
        // thread would std::terminate without context.
        try {
            task(worker);
        } catch (const std::exception &e) {
            panic("exception escaped a session-pool task: %s", e.what());
        } catch (...) {
            panic("unknown exception escaped a session-pool task");
        }
        task = nullptr; // release captures before reporting idle
        {
            std::lock_guard<std::mutex> lk(mtx);
            --running;
            if (queue.empty() && running == 0)
                cvIdle.notify_all();
        }
    }
}

unsigned
resolveSweepJobs(unsigned requested)
{
    if (requested >= 1)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

SweepStats
runSweepPlan(size_t cellCount, const std::function<void(size_t)> &fn,
             const SweepOptions &opts)
{
    using clock = std::chrono::steady_clock;

    SweepStats stats;
    stats.jobs = resolveSweepJobs(opts.jobs);
    stats.cells = cellCount;
    stats.cellWallMs.assign(cellCount, 0.0);
    stats.cellDispatchMs.assign(cellCount, 0.0);
    stats.cellWorker.assign(cellCount, 0);
    if (cellCount == 0)
        return stats;

    // Outer × inner fan-out would only timeshare cores: under a
    // parallel sweep, dispatches inside cells run serially.
    const bool serial_inner = stats.jobs > 1;

    // The pool spawns workers even at jobs = 1: every cell then
    // executes in the same environment (fresh thread, private registry)
    // regardless of job count, which is what makes byte-identity across
    // --jobs a structural property instead of a coincidence.  Slot
    // writes keep the merge structural, so the order in which workers
    // take cells never shows in the output.
    const auto plan0 = clock::now();
    {
        SessionPool pool(stats.jobs, opts.devices);
        for (size_t cell = 0; cell < cellCount; ++cell)
            pool.submit([&, cell](unsigned worker) {
                std::optional<ThreadPool::ScopedSerial> serial;
                if (serial_inner)
                    serial.emplace();
                const uint64_t dispatch0 =
                    sim::dispatchWallNsThisThread();
                const auto t0 = clock::now();
                fn(cell);
                stats.cellWallMs[cell] =
                    std::chrono::duration<double, std::milli>(
                        clock::now() - t0)
                        .count();
                stats.cellDispatchMs[cell] =
                    double(sim::dispatchWallNsThisThread() - dispatch0) /
                    1e6;
                stats.cellWorker[cell] = worker;
            });
    } // ~SessionPool runs every cell, then joins
    stats.wallMs =
        std::chrono::duration<double, std::milli>(clock::now() - plan0)
            .count();
    return stats;
}

} // namespace vcb::harness
