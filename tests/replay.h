/** @file Shared by the tests that run benchmark workloads: the
 *  reduced-size tables, the micro-kernel workloads, replaying a
 *  workload with its per-dispatch log, and the knob guard. */

#ifndef VCB_TESTS_REPLAY_H
#define VCB_TESTS_REPLAY_H

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "sim/engine.h"
#include "sim/microop.h"
#include "suite/benchmark.h"
#include "suite/workload.h"
#include "suite/workloads.h"

namespace vcb::suite {

/**
 * Reduced-size configurations used for cross-API validation and the
 * runner/strategy sweeps (test_suite, test_workload) — small enough
 * that the full (benchmark x API x strategy) matrix interprets in
 * seconds.  Parameter meanings follow each benchmark's SizeConfig
 * convention.
 */
inline SizeConfig
smallConfig(const std::string &name)
{
    if (name == "backprop")
        return {"small", {2048}};
    if (name == "bfs")
        return {"small", {4096}};
    if (name == "cfd")
        return {"small", {4096}};
    if (name == "gaussian")
        return {"small", {64}};
    if (name == "hotspot")
        return {"small", {64, 4}};
    if (name == "lud")
        return {"small", {96}};
    if (name == "nn")
        return {"small", {8192}};
    if (name == "nw")
        return {"small", {160}};
    if (name == "pathfinder")
        return {"small", {16, 2048}};
    if (name == "srad")
        return {"small", {32, 2}};
    if (name == "kmeans")
        return {"small", {1024, 4, 5}};
    if (name == "streamcluster")
        return {"small", {1024, 8, 3}};
    ADD_FAILURE() << "unknown benchmark " << name;
    return {"small", {64}};
}

/** Workgroups ExecutionEngine::dispatch samples per dispatch.  They
 *  run on the dispatch's tier and record their accesses there; only a
 *  forced lane-major tier hands them to the instrumented one. */
constexpr uint64_t kSampledWorkgroups = 4;

/**
 * Replay sizes (test_golden, test_tiers), for many runs per benchmark
 * under every API and knob.  Every benchmark issues at least one
 * dispatch wider than kSampledWorkgroups, so every tier also runs
 * workgroups that record no samples, and sizes sit off the workgroup
 * grain where the benchmark allows it, so the kernels'
 * partial-workgroup guards run too.
 */
inline SizeConfig
replayConfig(const std::string &name)
{
    if (name == "backprop")
        return {"replay", {100}};
    if (name == "bfs")
        return {"replay", {1300}};
    if (name == "cfd")
        return {"replay", {700}};
    if (name == "gaussian")
        return {"replay", {40}};
    if (name == "hotspot")
        return {"replay", {64, 4}};
    if (name == "lud")
        return {"replay", {80}};
    if (name == "nn")
        return {"replay", {4100}};
    if (name == "nw")
        return {"replay", {160}};
    if (name == "pathfinder")
        return {"replay", {6, 1300}};
    if (name == "srad")
        return {"replay", {48, 2}};
    if (name == "kmeans")
        return {"replay", {4100, 4, 4}};
    if (name == "streamcluster")
        return {"replay", {1300, 6, 3}};
    ADD_FAILURE() << "unknown benchmark " << name;
    return {"replay", {64}};
}

/** One-step vectorAdd (z = x + y) with a partial last workgroup. */
inline Workload
vectorAddWorkload()
{
    constexpr uint32_t n = 1300;
    Rng rng(0x9001);
    std::vector<float> x(n), y(n);
    for (uint32_t i = 0; i < n; ++i) {
        x[i] = rng.nextFloat(-100.0f, 100.0f);
        y[i] = rng.nextFloat(-100.0f, 100.0f);
    }
    Workload w;
    w.name = "vectorAdd";
    w.kernels = {kernels::buildVecAdd()};
    w.buffers = {{n * 4, wordsOf(x)}, {n * 4, wordsOf(y)}, {n * 4, {}}};
    w.host = {std::vector<uint32_t>(n)};
    w.body = {dispatchStep(0, (uint32_t)ceilDiv(n, 256), 1, 1, {pw(n)},
                           {{0, 0}, {1, 1}, {2, 2}})};
    w.epilogue = {readbackStep(2, 0)};
    w.validate = [x, y](const HostArrays &h) {
        std::vector<float> z(x.size());
        for (size_t i = 0; i < z.size(); ++i)
            z[i] = x[i] + y[i];
        return compareFloats(floatsOf(h[0]), z);
    };
    return w;
}

/**
 * One-step stridedRead with a planted sentinel.  Every lane sums the 8
 * cells of its window (rounds == window size); lane 0's window holds
 * the kernel's guard value once and exact zeros elsewhere, so only
 * correctly addressed loads sum to exactly the sentinel and take the
 * guarded store.  Any other lane sums eight values below 1.
 */
inline Workload
stridedReadWorkload()
{
    constexpr uint32_t threads = 1536, stride = 3, rounds = 8;
    const float sentinel = 123456789.0f;
    Rng rng(0x9002);
    std::vector<float> src(size_t(8) * threads * stride);
    for (auto &v : src)
        v = rng.nextFloat(0.0f, 1.0f);
    for (uint32_t r = 0; r < 8; ++r)
        src[size_t(r) * threads * stride] = r == 3 ? sentinel : 0.0f;
    Workload w;
    w.name = "stridedRead";
    w.kernels = {kernels::buildStridedRead()};
    w.buffers = {{src.size() * 4, wordsOf(src)}, {4, {}}};
    w.host = {{0u}};
    w.body = {dispatchStep(0, threads / 256, 1, 1,
                           {pw(stride), pw(rounds), pw(threads)},
                           {{0, 0}, {1, 1}})};
    w.epilogue = {readbackStep(1, 0)};
    w.validate = [sentinel](const HostArrays &h) {
        return compareFloats(floatsOf(h[0]), {sentinel}, 0.0, 0.0);
    };
    return w;
}

/** Names of every replayed workload: the micro kernels, then the
 *  registry benchmarks. */
inline std::vector<std::string>
replayNames()
{
    std::vector<std::string> names = {"vectorAdd", "stridedRead"};
    for (const Benchmark *b : registry())
        names.push_back(b->name());
    return names;
}

/**
 * The named workload at its replay size, with an untimed readback of
 * every device buffer appended, so replay comparisons cover every
 * buffer the kernels wrote, not only what validate checks.
 */
inline Workload
replayWorkload(const std::string &name)
{
    Workload w = name == "vectorAdd"     ? vectorAddWorkload()
                 : name == "stridedRead" ? stridedReadWorkload()
                     : byName(name).workload(replayConfig(name));
    for (size_t b = 0; b < w.buffers.size(); ++b) {
        w.inspect.push_back(readbackStep(b, w.host.size()));
        w.host.push_back(std::vector<uint32_t>(w.buffers[b].bytes / 4));
    }
    return w;
}

/** One run of a workload: its result, final host arrays and every
 *  dispatch it issued. */
struct Replay
{
    RunResult result;
    HostArrays host;
    std::vector<sim::RecordedDispatch> dispatches;
};

inline Replay
replay(const Workload &w, const sim::DeviceSpec &dev, sim::Api api)
{
    Replay r;
    sim::DispatchRecorder recorder;
    r.result = runWorkload(w, dev, api, {}, &r.host);
    r.dispatches = std::move(recorder.dispatches);
    return r;
}

/** Assert `got` is observably indistinguishable from `ref`: it
 *  validates, its final host arrays are bit-equal, and it issued the
 *  same dispatches with equal DispatchStats and simulated kernelNs. */
inline void
expectSameReplay(const Replay &ref, const Replay &got,
                 const std::string &what)
{
    ASSERT_TRUE(got.result.ok) << what << ": " << got.result.skipReason;
    EXPECT_TRUE(got.result.validated)
        << what << ": " << got.result.validationError;
    ASSERT_EQ(got.host.size(), ref.host.size()) << what;
    for (size_t a = 0; a < ref.host.size(); ++a)
        EXPECT_TRUE(got.host[a] == ref.host[a])
            << what << ": host array " << a << " differs";
    ASSERT_EQ(got.dispatches.size(), ref.dispatches.size()) << what;
    for (size_t i = 0; i < ref.dispatches.size(); ++i) {
        const sim::RecordedDispatch &a = ref.dispatches[i];
        const sim::RecordedDispatch &b = got.dispatches[i];
        EXPECT_EQ(b.kernel, a.kernel) << what << ": dispatch " << i;
        EXPECT_EQ(b.workgroups, a.workgroups) << what << ": dispatch " << i;
        EXPECT_TRUE(b.stats == a.stats)
            << what << ": dispatch " << i << " (" << a.kernel
            << ") stats diverge (laneCycles " << b.stats.laneCycles
            << " vs " << a.stats.laneCycles << ", sharedAccesses "
            << b.stats.sharedAccesses << " vs " << a.stats.sharedAccesses
            << ", dramAccesses " << b.stats.dramAccesses << " vs "
            << a.stats.dramAccesses << ")";
        EXPECT_EQ(b.kernelNs, a.kernelNs)
            << what << ": dispatch " << i << " (" << a.kernel
            << ") simulated time diverges";
    }
}

/** Restores every host-speed and lowering knob to its default, so a
 *  failing assertion cannot leak a forced setting into later tests. */
struct KnobGuard
{
    KnobGuard() = default;
    KnobGuard(const KnobGuard &) = delete;
    KnobGuard &operator=(const KnobGuard &) = delete;
    ~KnobGuard()
    {
        sim::setExecutorOverride(sim::ExecTier::Count);
        sim::setCompileLowerOptions({});
    }
};

} // namespace vcb::suite

#endif // VCB_TESTS_REPLAY_H
