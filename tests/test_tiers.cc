/** @file Tier-equivalence: the executor tier and superop formation
 *  are host-speed knobs ONLY.  Every replay workload runs under each
 *  forced VCB_EXECUTOR tier and with VCB_SUPEROPS disabled, demanding
 *  bit-identical host arrays, per-dispatch DispatchStats and simulated
 *  kernelNs against the auto-tier reference run — including the
 *  divergence-heavy workloads whose mid-phase branches exercise the
 *  block tier's bail-to-lane-major path. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "replay.h"
#include "sim/device.h"
#include "sim/dispatch.h"
#include "sim/microop.h"

namespace vcb::suite {
namespace {

class TierEquivalence : public ::testing::TestWithParam<std::string>
{
};

/** Every tier must also run workgroups that record no samples, so the
 *  checks below need dispatches wider than the sample. */
TEST_P(TierEquivalence, ReplayRunsUnsampledWorkgroups)
{
    Replay r = replay(replayWorkload(GetParam()), sim::gtx1050ti(),
                      sim::Api::Vulkan);
    ASSERT_TRUE(r.result.ok) << r.result.skipReason;
    uint64_t widest = 0;
    for (const sim::RecordedDispatch &d : r.dispatches)
        widest = std::max(widest, d.workgroups);
    EXPECT_GT(widest, kSampledWorkgroups);
}

/** Sampled workgroups run on the tier the kernel chose (trace or
 *  block), recording each memory op's lane vector; none falls to the
 *  instrumented tier while robust access is off. */
TEST_P(TierEquivalence, SampledWorkgroupsRunOnTheChosenTier)
{
    const uint64_t before =
        sim::tierWorkgroupCount(sim::ExecTier::Instrumented);
    Replay r = replay(replayWorkload(GetParam()), sim::gtx1050ti(),
                      sim::Api::Vulkan);
    ASSERT_TRUE(r.result.ok) << r.result.skipReason;
    EXPECT_EQ(sim::tierWorkgroupCount(sim::ExecTier::Instrumented) -
                  before,
              0u);
}

/** Each of the four tiers, forced, must replay every workload with
 *  results bit-identical to the policy-chosen tier.  This also checks
 *  op-major sampling against lane-major sampling end to end: the
 *  forced lane-major and instrumented tiers record the sampled
 *  workgroups lane by lane, the auto tier (trace or block) op by op,
 *  and the coalescing ratios feed DispatchStats, which must match. */
TEST_P(TierEquivalence, ForcedTiersMatchAuto)
{
    Workload w = replayWorkload(GetParam());
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    KnobGuard guard;

    Replay ref = replay(w, dev, sim::Api::Vulkan);
    ASSERT_TRUE(ref.result.ok) << ref.result.skipReason;

    for (sim::ExecTier tier :
         {sim::ExecTier::Trace, sim::ExecTier::Block,
          sim::ExecTier::LaneMajor, sim::ExecTier::Instrumented}) {
        sim::setExecutorOverride(tier);
        Replay out = replay(w, dev, sim::Api::Vulkan);
        sim::setExecutorOverride(sim::ExecTier::Count);
        expectSameReplay(ref, out,
                         w.name + " under forced tier " +
                             sim::execTierName(tier));
    }
}

/** Superop formation (and with it SuperLoop fusion) must be
 *  observably invisible: compiling with VCB_SUPEROPS=0 must replay
 *  every workload bit-identically, on every tier. */
TEST_P(TierEquivalence, SuperopsAreBitInvisible)
{
    Workload w = replayWorkload(GetParam());
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    KnobGuard guard;

    sim::setSuperopsEnabled(1);
    Replay ref = replay(w, dev, sim::Api::Vulkan);
    ASSERT_TRUE(ref.result.ok) << ref.result.skipReason;

    sim::setSuperopsEnabled(0);
    Replay plain = replay(w, dev, sim::Api::Vulkan);
    expectSameReplay(ref, plain, w.name + " with superops disabled");

    // Superops with the lane-major executor forced: the scalar
    // per-lane Super/SuperLoop handlers must agree with the plain
    // stream too (the vector handlers are covered above).
    sim::setSuperopsEnabled(1);
    sim::setExecutorOverride(sim::ExecTier::LaneMajor);
    Replay lane = replay(w, dev, sim::Api::Vulkan);
    expectSameReplay(ref, lane,
                     w.name + " with superops + forced lane-major");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TierEquivalence,
                         ::testing::ValuesIn(replayNames()),
                         [](const auto &info) { return info.param; });

/** The tier policy itself: metadata-driven, with the documented
 *  degradations. */
TEST(TierPolicy, SelectionFollowsLoweringMetadata)
{
    KnobGuard guard;
    sim::MicroKernel straight;
    straight.hasBranches = false;
    straight.hasAtomics = false;
    EXPECT_EQ(sim::chooseExecTier(straight), sim::ExecTier::Trace);

    sim::MicroKernel branchy = straight;
    branchy.hasBranches = true;
    EXPECT_EQ(sim::chooseExecTier(branchy), sim::ExecTier::Block);

    sim::MicroKernel atomics = straight;
    atomics.hasAtomics = true;
    EXPECT_EQ(sim::chooseExecTier(atomics), sim::ExecTier::Block);

    // A forced trace tier degrades to block when the body is not
    // straight-line (the trace executor compiles the branch machinery
    // out entirely, so it must never see one).
    sim::setExecutorOverride(sim::ExecTier::Trace);
    EXPECT_EQ(sim::effectiveExecTier(branchy), sim::ExecTier::Block);
    EXPECT_EQ(sim::effectiveExecTier(straight), sim::ExecTier::Trace);
    sim::setExecutorOverride(sim::ExecTier::Count);
}

} // namespace
} // namespace vcb::suite
