#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/logging.h"
#include "common/threadpool.h"
#include "sim/interpreter.h"
#include "sim/sampler.h"
#include "sim/timing.h"

namespace vcb::sim {

namespace {

/** Decompose a linear workgroup index into (x, y, z). */
inline void
unflatten(uint64_t idx, const uint32_t groups[3], uint32_t &x,
          uint32_t &y, uint32_t &z)
{
    x = static_cast<uint32_t>(idx % groups[0]);
    y = static_cast<uint32_t>((idx / groups[0]) % groups[1]);
    z = static_cast<uint32_t>(idx / (uint64_t(groups[0]) * groups[1]));
}

/** Per-participant execution state, scoped to one dispatch so buffers
 *  are released when the dispatch ends (a thread_local interpreter
 *  would pin the last dispatch's register/shared vectors forever). */
struct WorkerState
{
    Interpreter interp;
    WorkgroupStats ws;
    bool active = false;
};

std::atomic<uint64_t> g_workgroupsExecuted{0};
std::atomic<uint64_t> g_dispatchWallNs{0};
/** Same wall time, attributed to the thread that called dispatch():
 *  valid because dispatch() joins its pool fan-out before returning,
 *  so the whole dispatch elapses on the calling thread.  Lets sweep
 *  workers (src/harness/sweep.cc) ledger per-cell simulator time
 *  without tearing the process-wide counter apart. */
thread_local uint64_t t_dispatchWallNs = 0;
std::atomic<uint64_t>
    g_tierWorkgroups[static_cast<size_t>(ExecTier::Count)]{};
thread_local DispatchRecorder *t_recorder = nullptr;

} // namespace

DispatchRecorder::DispatchRecorder() : outer(t_recorder)
{
    t_recorder = this;
}

DispatchRecorder::~DispatchRecorder() { t_recorder = outer; }

uint64_t
executedWorkgroupCount()
{
    return g_workgroupsExecuted.load(std::memory_order_relaxed);
}

uint64_t
dispatchWallNs()
{
    return g_dispatchWallNs.load(std::memory_order_relaxed);
}

uint64_t
dispatchWallNsThisThread()
{
    return t_dispatchWallNs;
}

uint64_t
tierWorkgroupCount(ExecTier t)
{
    return g_tierWorkgroups[static_cast<size_t>(t)].load(
        std::memory_order_relaxed);
}

DispatchResult
ExecutionEngine::dispatch(const DispatchContext &ctx)
{
    const auto wall_start = std::chrono::steady_clock::now();
    struct WallScope
    {
        std::chrono::steady_clock::time_point t0;
        ~WallScope()
        {
            const uint64_t ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            g_dispatchWallNs.fetch_add(ns, std::memory_order_relaxed);
            t_dispatchWallNs += ns;
        }
    } wall_scope{wall_start};

    VCB_ASSERT(ctx.kernel != nullptr, "dispatch without kernel");
    const CompiledKernel &k = *ctx.kernel;
    VCB_ASSERT(ctx.groups[0] >= 1 && ctx.groups[1] >= 1 &&
                   ctx.groups[2] >= 1,
               "kernel '%s': zero workgroup count", k.module.name.c_str());

    // Every declared binding must be backed by a buffer.
    for (const auto &decl : k.module.bindings) {
        VCB_ASSERT(decl.binding < ctx.buffers.size() &&
                       ctx.buffers[decl.binding].data != nullptr,
                   "kernel '%s': binding %u has no buffer bound",
                   k.module.name.c_str(), decl.binding);
    }
    VCB_ASSERT(ctx.pushWords >= k.module.pushWords,
               "kernel '%s': push constants missing (%u of %u words)",
               k.module.name.c_str(), ctx.pushWords, k.module.pushWords);

    uint64_t total = uint64_t(ctx.groups[0]) * ctx.groups[1] *
                     ctx.groups[2];
    g_workgroupsExecuted.fetch_add(total, std::memory_order_relaxed);

    // Pick up to four spread-out sample workgroups for the coalescing
    // model (always including workgroup 0), as a sorted unique array.
    uint64_t samples[4];
    size_t num_samples = 0;
    samples[num_samples++] = 0;
    if (total > 1) {
        for (uint64_t s : {total / 4, total / 2, (3 * total) / 4})
            if (s != samples[num_samples - 1])
                samples[num_samples++] = s;
    }

    CoalesceSampler sampler(k.numSites, dev.warpWidth, dev.cacheLineBytes,
                            k.localCount());

    DispatchStats stats;
    std::vector<uint64_t> site_exec(k.numSites, 0);

    // Workers accumulate privately; everything merges exactly once per
    // dispatch after the parallel region joins — no mutex on the
    // per-workgroup path.
    auto merge = [&](const WorkgroupStats &ws) {
        stats.laneCycles += ws.laneCycles;
        stats.sharedAccesses += ws.sharedAccesses;
        stats.atomicOps += ws.atomicOps;
        stats.barriers += ws.barriers;
        stats.invocations += ws.invocations;
        for (uint32_t s = 0; s < k.numSites; ++s)
            site_exec[s] += ws.siteExec[s];
        // Tier usage is perf telemetry, not simulation state: it goes
        // to the process-wide counters, never into DispatchStats.
        for (size_t t = 0; t < static_cast<size_t>(ExecTier::Count); ++t)
            if (ws.tierWorkgroups[t])
                g_tierWorkgroups[t].fetch_add(
                    ws.tierWorkgroups[t], std::memory_order_relaxed);
    };

    // Sampled workgroups run serially first (the sampler is not
    // thread-safe); workgroups are independent, so order is irrelevant
    // to results.
    {
        Interpreter interp;
        interp.prepare(ctx);
        WorkgroupStats ws;
        ws.siteExec.assign(k.numSites, 0);
        for (size_t i = 0; i < num_samples; ++i) {
            uint32_t x, y, z;
            unflatten(samples[i], ctx.groups, x, y, z);
            interp.runWorkgroup(x, y, z, ws, &sampler);
        }
        merge(ws);
    }

    // Remaining workgroups in parallel, whole ranges per worker
    // invocation.  prepare() and the siteExec sizing run once per
    // participant instead of once per workgroup; the sorted sample
    // array is subtracted from each range up front so the hot loop is
    // branch-free over contiguous sub-ranges.
    if (total > num_samples) {
        ThreadPool &pool = ThreadPool::global();
        std::vector<WorkerState> workers(pool.workerCount() + 1);
        pool.parallelForRange(
            total, [&](uint64_t begin, uint64_t end, unsigned w) {
                WorkerState &st = workers[w];
                if (!st.active) {
                    st.active = true;
                    st.interp.prepare(ctx);
                    st.ws.siteExec.assign(k.numSites, 0);
                }
                auto run = [&](uint64_t from, uint64_t to) {
                    for (uint64_t idx = from; idx < to; ++idx) {
                        uint32_t x, y, z;
                        unflatten(idx, ctx.groups, x, y, z);
                        st.interp.runWorkgroup(x, y, z, st.ws, nullptr);
                    }
                };
                uint64_t at = begin;
                for (size_t i = 0; i < num_samples && at < end; ++i) {
                    uint64_t s = samples[i];
                    if (s < at)
                        continue;
                    if (s >= end)
                        break;
                    run(at, s);
                    at = s + 1;
                }
                run(at, end);
            });
        for (const WorkerState &st : workers)
            if (st.active)
                merge(st.ws);
    }

    // Fold site execution counts into DRAM/on-chip traffic using the
    // sampled coalescing ratios.
    bool promote = k.promoted;
    for (uint32_t s = 0; s < k.numSites; ++s) {
        uint64_t exec = site_exec[s];
        if (exec == 0)
            continue;
        if (promote && k.sitePromote[s]) {
            stats.promotedAccesses += exec;
        } else {
            stats.dramAccesses += exec;
            stats.dramTransactions +=
                static_cast<double>(exec) * sampler.ratioFor(s);
        }
    }

    DispatchResult result;
    result.stats = stats;
    const DriverProfile &prof = dev.profile(k.api);
    double derate = prof.kernelTimeFactor(k.module.name,
                                          k.module.sharedWords > 0);
    result.kernelNs =
        dev.dispatchLatencyNs + prof.dispatchSetupNs +
        derate * TimingModel::kernelExecNs(dev, k, stats,
                                           ctx.dramDerate);
    if (t_recorder)
        t_recorder->dispatches.push_back(
            {k.module.name, total, result.stats, result.kernelNs});
    return result;
}

} // namespace vcb::sim
