/** @file Known-good-output validation: every registry benchmark (at its
 *  reduced size) and both micro kernels replay through each simulated
 *  API's driver-compile + execution path, and the outputs must match
 *  the workload's CPU reference and agree across APIs (the paper's
 *  Section-IV correctness methodology as executable tests). */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "replay.h"

namespace vcb::suite {
namespace {

const sim::Api allApis[] = {sim::Api::Vulkan, sim::Api::OpenCl,
                            sim::Api::Cuda};

class GoldenReference : public ::testing::TestWithParam<std::string>
{
};

/** Desktop drivers reject nothing: every workload must execute and
 *  validate under every API the device exposes. */
TEST_P(GoldenReference, ValidatesOnDesktopDevices)
{
    Workload w = replayWorkload(GetParam());
    for (const sim::DeviceSpec *dev :
         {&sim::gtx1050ti(), &sim::rx560()}) {
        for (sim::Api api : allApis) {
            if (!dev->profile(api).available)
                continue;
            RunResult r = runWorkload(w, *dev, api);
            ASSERT_TRUE(r.ok) << w.name << " on " << dev->name << "/"
                              << sim::apiName(api) << ": "
                              << r.skipReason;
            EXPECT_TRUE(r.validated)
                << w.name << " on " << dev->name << "/"
                << sim::apiName(api) << ": " << r.validationError;
        }
    }
}

/** The three programming models must produce bit-identical results
 *  for the same seeded workload (cross-API comparability, paper
 *  Sec. IV). */
TEST_P(GoldenReference, ApisAgreeOnGtx1050Ti)
{
    Workload w = replayWorkload(GetParam());
    const sim::DeviceSpec &dev = sim::gtx1050ti();

    HostArrays baseline;
    RunResult base = runWorkload(w, dev, sim::Api::OpenCl, {}, &baseline);
    ASSERT_TRUE(base.ok) << base.skipReason;

    for (sim::Api api : {sim::Api::Vulkan, sim::Api::Cuda}) {
        HostArrays host;
        RunResult r = runWorkload(w, dev, api, {}, &host);
        ASSERT_TRUE(r.ok) << r.skipReason;
        ASSERT_EQ(host.size(), baseline.size());
        for (size_t a = 0; a < host.size(); ++a)
            EXPECT_TRUE(host[a] == baseline[a])
                << w.name << " host array " << a << ": "
                << sim::apiName(api) << " vs OpenCL";
    }
}

/** Mobile drivers may legitimately refuse kernels (the paper's driver
 *  failures); anything that runs must still validate, and any skip
 *  must be attributable to the device's declared driver profile. */
TEST_P(GoldenReference, MobileSkipsMatchDriverProfiles)
{
    Workload w = replayWorkload(GetParam());
    for (const sim::DeviceSpec *dev :
         {&sim::adreno506(), &sim::powervrG6430()}) {
        for (sim::Api api : allApis) {
            if (!dev->profile(api).available)
                continue;
            RunResult r = runWorkload(w, *dev, api);
            if (r.ok) {
                EXPECT_TRUE(r.validated)
                    << w.name << " on " << dev->name << "/"
                    << sim::apiName(api) << ": " << r.validationError;
                continue;
            }
            bool declared = false;
            for (const auto &m : w.kernels)
                declared |= dev->profile(api).kernelBroken(m.name);
            EXPECT_TRUE(declared)
                << w.name << " skipped on " << dev->name << "/"
                << sim::apiName(api)
                << " without a profile-declared reason: " << r.skipReason;
        }
    }
}

/** Micro-op fusion must be observably invisible on every kernel shape
 *  in the suite: replaying with lowering fusion disabled must give
 *  bit-identical host arrays, DispatchStats and kernelNs (not merely
 *  within tolerance). */
TEST_P(GoldenReference, FusionIsBitInvisible)
{
    Workload w = replayWorkload(GetParam());
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    KnobGuard guard;
    for (sim::Api api : allApis) {
        Replay fused = replay(w, dev, api);
        ASSERT_TRUE(fused.result.ok) << fused.result.skipReason;
        sim::setCompileLowerOptions(sim::LowerOptions::noFusion());
        Replay plain = replay(w, dev, api);
        sim::setCompileLowerOptions({});
        expectSameReplay(fused, plain,
                         w.name + " unfused on " + sim::apiName(api));
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenReference,
                         ::testing::ValuesIn(replayNames()),
                         [](const auto &info) { return info.param; });

TEST(GoldenCoverage, ReplaysDispatchEveryKernel)
{
    // A kernel added to the registry that no replay dispatches fails
    // here — coverage cannot silently regress.  The size guard keeps
    // the registry from silently shrinking; bump it when adding a
    // kernel family.
    std::set<std::string> expected;
    for (const auto &[name, fn] : kernels::kernelRegistry())
        expected.insert(name);
    EXPECT_EQ(expected.size(), 24u);

    std::set<std::string> dispatched;
    for (const std::string &name : replayNames()) {
        Replay r = replay(replayWorkload(name), sim::gtx1050ti(),
                          sim::Api::Vulkan);
        ASSERT_TRUE(r.result.ok) << name << ": " << r.result.skipReason;
        for (const sim::RecordedDispatch &d : r.dispatches)
            dispatched.insert(d.kernel);
    }
    EXPECT_EQ(dispatched, expected);
}

} // namespace
} // namespace vcb::suite
