#include "harness/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "common/threadpool.h"
#include "sim/engine.h"

namespace vcb::harness {

namespace {

/** Same fatal-on-throw contract as ThreadPool work items: a cell that
 *  throws is a harness bug, and letting it escape a worker thread
 *  would std::terminate without context. */
void
runCell(const std::function<void(size_t)> &fn, size_t cell)
{
    try {
        fn(cell);
    } catch (const std::exception &e) {
        panic("exception escaped a sweep cell: %s", e.what());
    } catch (...) {
        panic("unknown exception escaped a sweep cell");
    }
}

} // namespace

unsigned
resolveSweepJobs(unsigned requested)
{
    if (requested >= 1)
        return requested;
    const char *env = std::getenv("VCB_REPORT_JOBS");
    if (env && *env) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1 && v <= 256)
            return static_cast<unsigned>(v);
        warn("ignoring invalid VCB_REPORT_JOBS='%s' (want 1..256)", env);
    }
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
    stats.cellSimMs.assign(cellCount, 0.0);
    stats.cellWorker.assign(cellCount, 0);
    if (cellCount == 0)
        return stats;

    // Workers run under a private copy of the caller's registry by
    // default; cells resolve devices against it by index/name.
    const std::vector<sim::DeviceSpec> &devices =
        opts.devices.empty() ? sim::activeDeviceRegistry() : opts.devices;

    // Outer × inner fan-out would only timeshare cores: under a
    // parallel sweep, dispatches inside cells run serially.
    const bool serial_inner = stats.jobs > 1;

    // Dynamic claim in plan order: slot writes keep the merge
    // structural, so claim order never shows in the output.
    std::atomic<size_t> next{0};
    auto worker_body = [&](unsigned worker) {
        sim::ScopedDeviceRegistry session{devices};
        std::unique_ptr<ThreadPool::ScopedSerial> serial;
        if (serial_inner)
            serial = std::make_unique<ThreadPool::ScopedSerial>();
        for (;;) {
            size_t cell = next.fetch_add(1);
            if (cell >= cellCount)
                break;
            const uint64_t sim0 = sim::dispatchWallNsThisThread();
            const auto t0 = clock::now();
            runCell(fn, cell);
            stats.cellWallMs[cell] =
                std::chrono::duration<double, std::milli>(clock::now() -
                                                          t0)
                    .count();
            stats.cellSimMs[cell] =
                double(sim::dispatchWallNsThisThread() - sim0) / 1e6;
            stats.cellWorker[cell] = worker;
        }
    };

    // Spawn workers even at jobs = 1: every cell then executes in the
    // same environment (fresh thread, private registry) regardless of
    // job count, which is what makes byte-identity across --jobs a
    // structural property instead of a coincidence.
    const auto plan0 = clock::now();
    std::vector<std::thread> workers;
    workers.reserve(stats.jobs);
    for (unsigned w = 0; w < stats.jobs; ++w)
        workers.emplace_back(worker_body, w);
    for (auto &t : workers)
        t.join();
    stats.wallMs =
        std::chrono::duration<double, std::milli>(clock::now() - plan0)
            .count();
    return stats;
}

} // namespace vcb::harness
