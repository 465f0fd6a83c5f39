/** @file The workload-program layer: every benchmark's declarative
 *  host program through all three shared runners, launch-count
 *  determinism across repeats / APIs / strategies, and bit-identical
 *  outputs across every applicable Vulkan submission strategy. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "replay.h"
#include "suite/benchmark.h"
#include "suite/workload.h"

namespace vcb::suite {
namespace {

class WorkloadRunners : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRunners, AllThreeRunnersValidate)
{
    const Benchmark &bench = byName(GetParam());
    Workload w = bench.workload(smallConfig(GetParam()));
    const sim::DeviceSpec &dev = sim::gtx1050ti();

    RunResult vk = runWorkloadVulkan(w, dev);
    RunResult cl = runWorkloadOcl(w, dev);
    RunResult cu = runWorkloadCuda(w, dev);
    for (const RunResult *r : {&vk, &cl, &cu}) {
        ASSERT_TRUE(r->ok) << r->skipReason;
        EXPECT_TRUE(r->validated) << r->validationError;
        EXPECT_GT(r->kernelRegionNs, 0.0);
        EXPECT_GE(r->totalNs, r->kernelRegionNs);
        EXPECT_GT(r->launches, 0u);
    }
    // One program, one launch count: the paper's cross-API comparison
    // only isolates the programming model if all three runners issue
    // identical work.
    EXPECT_EQ(vk.launches, cl.launches);
    EXPECT_EQ(vk.launches, cu.launches);
    EXPECT_EQ(vk.strategy, strategyName(w.preferred));
    EXPECT_EQ(cl.strategy, "per-launch");
}

TEST_P(WorkloadRunners, RepeatRunsAreDeterministic)
{
    const Benchmark &bench = byName(GetParam());
    Workload w = bench.workload(smallConfig(GetParam()));
    const sim::DeviceSpec &dev = sim::gtx1050ti();

    HostArrays host_a, host_b;
    RunResult a = runWorkloadVulkan(w, dev, {}, &host_a);
    RunResult b = runWorkloadVulkan(w, dev, {}, &host_b);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_DOUBLE_EQ(a.kernelRegionNs, b.kernelRegionNs);
    EXPECT_EQ(host_a, host_b);
}

TEST_P(WorkloadRunners, StrategiesProduceBitIdenticalOutputs)
{
    const Benchmark &bench = byName(GetParam());
    Workload w = bench.workload(smallConfig(GetParam()));
    const sim::DeviceSpec &dev = sim::gtx1050ti();

    std::vector<SubmitStrategy> strategies = applicableStrategies(w);
    ASSERT_FALSE(strategies.empty());
    EXPECT_TRUE(strategyApplicable(w, w.preferred));

    HostArrays baseline;
    RunResult base;
    for (size_t i = 0; i < strategies.size(); ++i) {
        WorkloadOptions opts;
        opts.strategy = strategies[i];
        HostArrays host;
        RunResult r = runWorkloadVulkan(w, dev, opts, &host);
        ASSERT_TRUE(r.ok) << r.skipReason;
        EXPECT_TRUE(r.validated)
            << strategyName(strategies[i]) << ": "
            << r.validationError;
        if (i == 0) {
            baseline = std::move(host);
            base = r;
            continue;
        }
        // The strategy moves submissions around; it must never move
        // bits or launches.
        EXPECT_EQ(host, baseline) << strategyName(strategies[i]);
        EXPECT_EQ(r.launches, base.launches)
            << strategyName(strategies[i]);
    }
}

std::vector<std::string>
allBenchmarkNames()
{
    std::vector<std::string> names;
    for (const Benchmark *b : registry())
        names.push_back(b->name());
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadRunners,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadStrategies, AtLeastEightBenchmarksAreSweepable)
{
    // The tentpole's acceptance bar: the submission strategy is a
    // measured axis, not an accident of driver code — at least 8 of
    // the 12 benchmarks admit two or more strategies.
    std::map<std::string, size_t> counts;
    for (const Benchmark *b : registry()) {
        Workload w = b->workload(smallConfig(b->name()));
        counts[b->name()] = applicableStrategies(w).size();
    }
    size_t sweepable = 0;
    for (const auto &[name, n] : counts)
        if (n >= 2)
            ++sweepable;
    EXPECT_GE(sweepable, 8u) << "sweepable benchmarks regressed";
    // srad and streamcluster are inherently re-record (host-computed
    // push values / per-round candidates with mid-loop readbacks).
    EXPECT_EQ(counts["srad"], 1u);
    EXPECT_EQ(counts["streamcluster"], 1u);
}

TEST(WorkloadStrategies, ApplicabilityMatchesProgramShape)
{
    auto w_of = [&](const char *name) {
        return byName(name).workload(smallConfig(name));
    };
    // Uniform converge loops: record-once + re-record, never batched
    // (the host reads a flag/counter every iteration).
    for (const char *name : {"bfs", "kmeans"}) {
        Workload w = w_of(name);
        EXPECT_TRUE(strategyApplicable(w, SubmitStrategy::RecordOnce))
            << name;
        EXPECT_FALSE(strategyApplicable(w, SubmitStrategy::Batched))
            << name;
        EXPECT_EQ(w.preferred, SubmitStrategy::RecordOnce) << name;
    }
    // Statically-varying pure-device loops: batched + re-record, not
    // record-once (pushes/bindings move per iteration).
    for (const char *name :
         {"gaussian", "hotspot", "lud", "nw", "pathfinder"}) {
        Workload w = w_of(name);
        EXPECT_FALSE(strategyApplicable(w, SubmitStrategy::RecordOnce))
            << name;
        EXPECT_TRUE(strategyApplicable(w, SubmitStrategy::Batched))
            << name;
        EXPECT_EQ(w.preferred, SubmitStrategy::Batched) << name;
    }
    // A uniform pure-device body admits everything.
    Workload cfd = w_of("cfd");
    EXPECT_EQ(applicableStrategies(cfd).size(), 3u);
    // Host-resolved pushes pin srad to re-record.
    Workload srad = w_of("srad");
    EXPECT_FALSE(strategyApplicable(srad, SubmitStrategy::RecordOnce));
    EXPECT_FALSE(strategyApplicable(srad, SubmitStrategy::Batched));
}

TEST(WorkloadStrategies, BatchSizeDoesNotChangeResults)
{
    // batched-N: submitting every N iterations instead of one mega
    // buffer moves fence waits, not bits.
    const Benchmark &bench = byName("hotspot");
    Workload w = bench.workload(smallConfig("hotspot"));
    const sim::DeviceSpec &dev = sim::gtx1050ti();

    HostArrays all_in_one, per_two;
    WorkloadOptions a, b;
    a.strategy = SubmitStrategy::Batched; // batchN = 0: all iterations
    b.strategy = SubmitStrategy::Batched;
    b.batchN = 2;
    RunResult ra = runWorkloadVulkan(w, dev, a, &all_in_one);
    RunResult rb = runWorkloadVulkan(w, dev, b, &per_two);
    ASSERT_TRUE(ra.ok && rb.ok);
    EXPECT_TRUE(ra.validated && rb.validated);
    EXPECT_EQ(all_in_one, per_two);
    EXPECT_EQ(ra.launches, rb.launches);
    // More submissions cost more on the simulated host clock.
    EXPECT_GT(rb.kernelRegionNs, ra.kernelRegionNs);
}

TEST(WorkloadStrategies, StrategyTagReflectsOverride)
{
    const Benchmark &bench = byName("cfd");
    Workload w = bench.workload(smallConfig("cfd"));
    WorkloadOptions opts;
    opts.strategy = SubmitStrategy::RecordOnce;
    RunResult r = runWorkloadVulkan(w, sim::gtx1050ti(), opts);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.strategy, "record-once");
}

// ---------------------------------------------------------------------------
// Multi-queue DAG scheduling
// ---------------------------------------------------------------------------

/** The dag benchmarks and the strategies the multi-queue path
 *  accepts (Batched is excluded by design). */
const char *const kDagBenches[] = {"nn", "kmeans"};
const SubmitStrategy kMultiQueueStrategies[] = {
    SubmitStrategy::RecordOnce, SubmitStrategy::ReRecord};

TEST(WorkloadMultiQueue, QueueCountsProduceBitIdenticalOutputs)
{
    // Spreading a dag's dispatch chains over 1/2/4 queues moves only
    // the simulated timeline; outputs, launches and the convergence
    // trajectory must match the serial single-queue path bit for bit.
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    for (const char *name : kDagBenches) {
        Workload w = byName(name).workload(smallConfig(name));
        ASSERT_TRUE(w.dag) << name;
        for (SubmitStrategy strat : kMultiQueueStrategies) {
            WorkloadOptions serial;
            serial.strategy = strat;
            HostArrays baseline;
            RunResult base =
                runWorkloadVulkan(w, dev, serial, &baseline);
            ASSERT_TRUE(base.ok) << base.skipReason;
            EXPECT_EQ(base.queuesUsed, 1u);
            for (uint32_t q : {1u, 2u, 4u}) {
                WorkloadOptions opts;
                opts.strategy = strat;
                opts.queueCount = q;
                HostArrays host;
                RunResult r = runWorkloadVulkan(w, dev, opts, &host);
                ASSERT_TRUE(r.ok) << r.skipReason;
                EXPECT_TRUE(r.validated)
                    << name << " q=" << q << ": " << r.validationError;
                EXPECT_EQ(host, baseline) << name << " q=" << q;
                EXPECT_EQ(r.launches, base.launches)
                    << name << " q=" << q;
                EXPECT_EQ(r.queuesUsed, q);
            }
        }
    }
}

TEST(WorkloadMultiQueue, FourQueuesOverlapOnDagWorkloads)
{
    // The acceptance gate: on a device with >= 4 compute queues, a
    // dag-parallel workload's kernel region is strictly shorter on 4
    // queues than on 1, and the summed busy time exceeds the elapsed
    // region (the signature of genuine overlap, not bookkeeping).
    // Paper-sized inputs: overlap needs per-chunk kernel time to
    // dominate the per-submit overhead, which the seconds-scale test
    // configs are deliberately too small for.
    const std::map<std::string, SizeConfig> cfg = {
        {"nn", {"overlap", {2097152}}},
        {"kmeans", {"overlap", {65536, 4, 5}}},
    };
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    for (const char *name : kDagBenches) {
        Workload w = byName(name).workload(cfg.at(name));
        WorkloadOptions one, four;
        one.strategy = four.strategy = SubmitStrategy::ReRecord;
        one.queueCount = 1;
        four.queueCount = 4;
        RunResult r1 = runWorkloadVulkan(w, dev, one);
        RunResult r4 = runWorkloadVulkan(w, dev, four);
        ASSERT_TRUE(r1.ok && r4.ok);
        EXPECT_LT(r4.kernelRegionNs, r1.kernelRegionNs) << name;
        // Serial execution cannot be busier than elapsed.
        EXPECT_LE(r1.deviceBusyNs,
                  r1.kernelRegionNs * (1.0 + 1e-9))
            << name;
        // busy > elapsed holds only where device work dominates the
        // region: nn is compute-bound, kmeans spends its region on
        // per-iteration transfers and host centroid updates.
        if (std::string(name) == "nn") {
            EXPECT_GT(r4.deviceBusyNs, r4.kernelRegionNs) << name;
        }
    }
}

TEST(WorkloadMultiQueue, QueueCountClampsToDeviceLimit)
{
    // A mobile part with a single compute queue accepts the
    // multi-queue request but degenerates to the 1-queue schedule.
    const sim::DeviceSpec &dev = sim::adreno506();
    Workload w = byName("nn").workload(smallConfig("nn"));
    WorkloadOptions opts;
    opts.strategy = SubmitStrategy::ReRecord;
    opts.queueCount = 4;
    HostArrays host4, host1;
    RunResult r4 = runWorkloadVulkan(w, dev, opts, &host4);
    opts.queueCount = 1;
    RunResult r1 = runWorkloadVulkan(w, dev, opts, &host1);
    ASSERT_TRUE(r4.ok && r1.ok);
    EXPECT_EQ(r4.queuesUsed, 1u);
    EXPECT_DOUBLE_EQ(r4.kernelRegionNs, r1.kernelRegionNs);
    EXPECT_EQ(host4, host1);
}

TEST(WorkloadSkips, DriverFailuresSurfaceAsSkips)
{
    // The shared runners preserve the per-driver failure modelling the
    // hand-written drivers exposed (paper Sec. V-B2).
    Workload lud = byName("lud").workload(smallConfig("lud"));
    RunResult cl = runWorkloadOcl(lud, sim::adreno506());
    EXPECT_FALSE(cl.ok);
    EXPECT_NE(cl.skipReason.find("driver failure"), std::string::npos);

    Workload nn = byName("nn").workload(smallConfig("nn"));
    RunResult cu = runWorkloadCuda(nn, sim::rx560());
    EXPECT_FALSE(cu.ok);
    EXPECT_NE(cu.skipReason.find("CUDA"), std::string::npos);
}

} // namespace
} // namespace vcb::suite
