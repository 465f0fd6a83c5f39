/** @file The benchmark suite: registry metadata (Table I), workload
 *  determinism, and — the heart of the paper's methodology — output
 *  validation of every benchmark under every API against the CPU
 *  references, at reduced sizes for test speed. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "replay.h"
#include "suite/benchmark.h"
#include "suite/workloads.h"

namespace vcb::suite {
namespace {

TEST(SuiteRegistry, TableOneContents)
{
    // The paper's nine Table-I rows in order, then the suite-expansion
    // families.
    const auto &benches = registry();
    ASSERT_EQ(benches.size(), 12u);
    std::vector<std::string> names;
    for (const auto *b : benches)
        names.push_back(b->name());
    std::vector<std::string> expect = {
        "backprop", "bfs",  "cfd",        "gaussian",
        "hotspot",  "lud",  "nn",         "nw",
        "pathfinder", "srad", "kmeans",   "streamcluster"};
    EXPECT_EQ(names, expect);
    for (const auto *b : benches) {
        EXPECT_FALSE(b->fullName().empty()) << b->name();
        EXPECT_FALSE(b->dwarf().empty()) << b->name();
        EXPECT_FALSE(b->domain().empty()) << b->name();
        EXPECT_EQ(b->desktopSizes().size(), 3u) << b->name();
    }
}

TEST(SuiteRegistry, MobileCoverageMatchesPaper)
{
    // Every benchmark now declares two mobile sizes (Fig. 4); whether
    // cfd's actually RUN depends on the device: the paper's hard-cap
    // parts skip it wholesale, UVM parts page it in instead.
    sim::DeviceSpec hard_cap;
    hard_cap.mobile = true;
    hard_cap.unifiedMemory = true;
    sim::DeviceSpec uvm = hard_cap;
    uvm.uvmOversubscription = 64.0;
    for (const auto *b : registry()) {
        EXPECT_EQ(b->mobileSizes().size(), 2u) << b->name();
        // UVM parts run everything.
        EXPECT_TRUE(b->mobileSkipReason(uvm).empty()) << b->name();
        EXPECT_EQ(b->sizesFor(uvm).size(), 2u) << b->name();
        if (b->name() == "cfd") {
            // The paper's skip survives on hard-cap parts.
            EXPECT_TRUE(b->sizesFor(hard_cap).empty());
            EXPECT_NE(b->mobileSkipReason(hard_cap).find("heap"),
                      std::string::npos);
        } else {
            EXPECT_EQ(b->sizesFor(hard_cap).size(), 2u) << b->name();
        }
    }
}

TEST(SuiteRegistry, ByNameFindsEveryBenchmark)
{
    for (const auto *b : registry())
        EXPECT_EQ(&byName(b->name()), b);
}

TEST(SuiteRegistry, WorkloadSeedsAreStableAndDistinct)
{
    SizeConfig a{"x", {64}};
    SizeConfig b{"x", {128}};
    EXPECT_EQ(workloadSeed("bfs", a), workloadSeed("bfs", a));
    EXPECT_NE(workloadSeed("bfs", a), workloadSeed("bfs", b));
    EXPECT_NE(workloadSeed("bfs", a), workloadSeed("nn", a));
}

TEST(Validate, CompareFloats)
{
    EXPECT_TRUE(compareFloats({1.0f, 2.0f}, {1.0f, 2.0f}).empty());
    EXPECT_FALSE(compareFloats({1.0f}, {1.0f, 2.0f}).empty());
    EXPECT_FALSE(compareFloats({1.0f}, {1.1f}).empty());
    // Within relative tolerance.
    EXPECT_TRUE(compareFloats({1.00001f}, {1.0f}, 1e-3).empty());
    // NaN mismatch is reported.
    EXPECT_FALSE(
        compareFloats({std::nanf("")}, {1.0f}).empty());
    EXPECT_TRUE(
        compareFloats({std::nanf("")}, {std::nanf("")}).empty());
}

TEST(Validate, CompareInts)
{
    EXPECT_TRUE(compareInts({1, 2, 3}, {1, 2, 3}).empty());
    EXPECT_NE(compareInts({1, 2, 4}, {1, 2, 3}).find("[2]"),
              std::string::npos);
}

struct MatrixCase
{
    std::string bench;
    sim::Api api;
};

class SuiteValidation : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(SuiteValidation, OutputMatchesCpuReferenceOnGtx)
{
    const MatrixCase &mc = GetParam();
    const Benchmark &bench = byName(mc.bench);
    RunResult r = bench.run(sim::gtx1050ti(), mc.api,
                            smallConfig(mc.bench));
    ASSERT_TRUE(r.ok) << r.skipReason;
    EXPECT_TRUE(r.validated) << r.validationError;
    EXPECT_GT(r.kernelRegionNs, 0.0);
    EXPECT_GE(r.totalNs, r.kernelRegionNs);
    EXPECT_GT(r.launches, 0u);
}

std::vector<MatrixCase>
allMatrixCases()
{
    std::vector<MatrixCase> cases;
    for (const auto *b : registry())
        for (sim::Api api :
             {sim::Api::Vulkan, sim::Api::OpenCl, sim::Api::Cuda})
            cases.push_back({b->name(), api});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllApis, SuiteValidation,
    ::testing::ValuesIn(allMatrixCases()),
    [](const ::testing::TestParamInfo<MatrixCase> &info) {
        return info.param.bench + "_" +
               std::string(sim::apiName(info.param.api));
    });

/** Cross-device validation of one representative benchmark. */
class SuiteDevices : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteDevices, PathfinderValidatesEverywhere)
{
    const sim::DeviceSpec &dev =
        sim::deviceRegistry()[static_cast<size_t>(GetParam())];
    const Benchmark &bench = byName("pathfinder");
    for (sim::Api api : {sim::Api::Vulkan, sim::Api::OpenCl}) {
        RunResult r = bench.run(dev, api, smallConfig("pathfinder"));
        ASSERT_TRUE(r.ok) << dev.name << ": " << r.skipReason;
        EXPECT_TRUE(r.validated)
            << dev.name << ": " << r.validationError;
    }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, SuiteDevices,
                         ::testing::Range(0, 4));

TEST(SuiteDriverFailures, LudOpenClFailsOnSnapdragon)
{
    RunResult r = byName("lud").run(sim::adreno506(), sim::Api::OpenCl,
                                    smallConfig("lud"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.skipReason.find("driver failure"), std::string::npos);
    // ... while the Vulkan path still works.
    RunResult vk = byName("lud").run(sim::adreno506(), sim::Api::Vulkan,
                                     smallConfig("lud"));
    EXPECT_TRUE(vk.ok) << vk.skipReason;
    EXPECT_TRUE(vk.validated) << vk.validationError;
}

TEST(SuiteDriverFailures, BackpropFailsOnNexusUnderBothApis)
{
    // OpenCL surfaces the build error directly; Vulkan reports the
    // failed pipeline creation (ErrorInitializationFailed).
    RunResult cl = byName("backprop").run(
        sim::powervrG6430(), sim::Api::OpenCl, smallConfig("backprop"));
    EXPECT_FALSE(cl.ok);
    EXPECT_NE(cl.skipReason.find("driver failure"), std::string::npos);
    RunResult vk = byName("backprop").run(
        sim::powervrG6430(), sim::Api::Vulkan, smallConfig("backprop"));
    EXPECT_FALSE(vk.ok);
    EXPECT_NE(vk.skipReason.find("failed"), std::string::npos);
}

TEST(SuiteDriverFailures, CudaUnavailableOffNvidia)
{
    RunResult r = byName("nn").run(sim::rx560(), sim::Api::Cuda,
                                   smallConfig("nn"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.skipReason.find("CUDA"), std::string::npos);
}

TEST(SuiteDeterminism, SameSeedSameTiming)
{
    const Benchmark &bench = byName("gaussian");
    RunResult a = bench.run(sim::gtx1050ti(), sim::Api::Vulkan,
                            smallConfig("gaussian"));
    RunResult b = bench.run(sim::gtx1050ti(), sim::Api::Vulkan,
                            smallConfig("gaussian"));
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_DOUBLE_EQ(a.kernelRegionNs, b.kernelRegionNs);
    EXPECT_EQ(a.launches, b.launches);
}

TEST(SuiteDeterminism, KmeansConvergesIdenticallyAcrossApis)
{
    // kmeans's launch count encodes its convergence iteration count
    // (one assignment dispatch per iteration plus the transpose); the
    // data decides when the loop stops, so every API must agree, and
    // repeated runs must reproduce it exactly.  The cross-thread-count
    // version of this property lives in test_tools.cc, which can
    // re-launch the process under different VCB_THREADS values.
    SizeConfig cfg = smallConfig("kmeans");
    const Benchmark &bench = byName("kmeans");
    RunResult vk = bench.run(sim::gtx1050ti(), sim::Api::Vulkan, cfg);
    RunResult cl = bench.run(sim::gtx1050ti(), sim::Api::OpenCl, cfg);
    RunResult cu = bench.run(sim::gtx1050ti(), sim::Api::Cuda, cfg);
    ASSERT_TRUE(vk.ok && cl.ok && cu.ok);
    EXPECT_TRUE(vk.validated) << vk.validationError;
    EXPECT_GT(vk.launches, 1u); // converged after >0 iterations
    EXPECT_EQ(vk.launches, cl.launches);
    EXPECT_EQ(vk.launches, cu.launches);

    RunResult again = bench.run(sim::gtx1050ti(), sim::Api::Vulkan, cfg);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.launches, vk.launches);
    EXPECT_DOUBLE_EQ(again.kernelRegionNs, vk.kernelRegionNs);
}

} // namespace
} // namespace vcb::suite
