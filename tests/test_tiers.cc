/** @file Tier-equivalence: the executor tier and superop formation
 *  are host-speed knobs ONLY.  Every replay workload runs under each
 *  forced executor tier (setExecutorOverride) and with superops
 *  disabled (setCompileLowerOptions), demanding bit-identical host arrays,
 *  per-dispatch DispatchStats and simulated kernelNs against the
 *  auto-tier reference run — including the divergence-heavy workloads
 *  whose mid-phase branches exercise the block tier's
 *  bail-to-lane-major path.  Three hand-built kernels cover what no
 *  benchmark does: signed-overflow operands, float-to-int conversion of
 *  NaN, infinities and out-of-range values, and workgroups wider than
 *  a lane block but not a multiple of it. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "replay.h"
#include "sim/device.h"
#include "sim/dispatch.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "sim/microop.h"
#include "spirv/builder.h"

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
 *  observably invisible: compiling with superops off must replay
 *  every workload bit-identically, on every tier. */
TEST_P(TierEquivalence, SuperopsAreBitInvisible)
{
    Workload w = replayWorkload(GetParam());
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    KnobGuard guard;

    sim::setCompileLowerOptions({});
    Replay ref = replay(w, dev, sim::Api::Vulkan);
    ASSERT_TRUE(ref.result.ok) << ref.result.skipReason;

    sim::setCompileLowerOptions({.fuseSuperops = false});
    Replay plain = replay(w, dev, sim::Api::Vulkan);
    expectSameReplay(ref, plain, w.name + " with superops disabled");

    // Superops with the lane-major executor forced: the scalar
    // per-lane SuperLoop handler must agree with the plain stream too
    // (the span-wide one is covered above).
    sim::setCompileLowerOptions({});
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

// --- hand-built kernels ------------------------------------------------------

using spirv::Builder;
using spirv::ElemType;

const sim::ExecTier kAllTiers[] = {
    sim::ExecTier::Trace, sim::ExecTier::Block, sim::ExecTier::LaneMajor,
    sim::ExecTier::Instrumented};

/** One dispatch's observable outcome: every buffer and the stats. */
struct Outcome
{
    std::vector<std::vector<uint32_t>> bufs;
    sim::DispatchStats stats;
};

/** Compile m for the GTX 1050 Ti under Vulkan (with the current lower
 *  options and forced tier) and dispatch gx workgroups over copies of
 *  bufs.  Also checks that the tier the kernel resolves to ran. */
Outcome
dispatchOnce(const spirv::Module &m, std::vector<std::vector<uint32_t>> bufs,
             uint32_t gx, const std::vector<uint32_t> &push = {})
{
    const sim::DeviceSpec &dev = sim::gtx1050ti();
    std::string err;
    auto kernel = sim::compileKernel(m, dev, sim::Api::Vulkan, &err);
    if (!kernel)
        panic("compile of '%s' failed: %s", m.name.c_str(), err.c_str());
    sim::DispatchContext ctx;
    ctx.kernel = kernel.get();
    ctx.groups[0] = gx;
    for (std::vector<uint32_t> &b : bufs)
        ctx.buffers.push_back({b.data(), b.size()});
    ctx.push = push.data();
    ctx.pushWords = static_cast<uint32_t>(push.size());
    const sim::ExecTier tier = sim::effectiveExecTier(*kernel->micro);
    const uint64_t before = sim::tierWorkgroupCount(tier);
    sim::ExecutionEngine engine(dev);
    Outcome out{{}, engine.dispatch(ctx).stats};
    EXPECT_GT(sim::tierWorkgroupCount(tier), before)
        << m.name << ": nothing ran on tier " << sim::execTierName(tier);
    out.bufs = std::move(bufs);
    return out;
}

/** Signed 32-bit quotient/remainder as the simulator defines them:
 *  the exact result wrapped to 32 bits (INT_MIN / -1 = INT_MIN,
 *  INT_MIN % -1 = 0). */
uint32_t
wrapDiv(uint32_t x, uint32_t y)
{
    return static_cast<uint32_t>(int64_t(int32_t(x)) / int32_t(y));
}
uint32_t
wrapRem(uint32_t x, uint32_t y)
{
    return static_cast<uint32_t>(int64_t(int32_t(x)) % int32_t(y));
}

/** INT_MIN / -1, INT_MIN % -1 and -INT_MIN are signed overflow in C++
 *  and trap x86's idiv; SPIR-V leaves them undefined.  Every tier must
 *  give the two's-complement wrap, with the division fused (IDivRem)
 *  and unfused, for dispatch-uniform push-constant operands (the
 *  negation is hoisted into the register template) and for
 *  lane-varying ones. */
TEST(SignedOverflow, WrapsOnEveryTier)
{
    constexpr uint32_t kLanes = 12;
    constexpr uint32_t kGroups = 8;
    constexpr uint32_t kN = kLanes * kGroups;
    constexpr uint32_t kMin = 0x80000000u;
    constexpr uint32_t kMinus1 = 0xffffffffu;

    Builder b("sdiv_wrap", kLanes);
    b.bindStorage(0, ElemType::I32, true);
    b.bindStorage(1, ElemType::I32, true);
    b.bindStorage(2, ElemType::I32);
    b.setPushWords(2);
    auto gid = b.globalIdX();
    auto slot = b.imul(gid, b.constI(6));
    auto out = [&](int32_t k, Builder::Reg v) {
        b.stBuf(2, b.iadd(slot, b.constI(k)), v);
    };
    // Each division is directly followed by its remainder, the pair
    // the lowering fuses.
    auto num = b.ldBuf(0, gid);
    auto den = b.ldBuf(1, gid);
    auto q = b.idiv(num, den);
    auto r = b.irem(num, den);
    out(0, q);
    out(1, r);
    out(2, b.ineg(num));
    auto pn = b.ldPush(0);
    auto pd = b.ldPush(1);
    auto pq = b.idiv(pn, pd);
    auto pr = b.irem(pn, pd);
    out(3, pq);
    out(4, pr);
    out(5, b.ineg(pn));
    const spirv::Module m = b.finish();

    // Lane l of the dispatch divides nums[l % 8] by dens[l / 8 % 8].
    const uint32_t nums[] = {kMin, kMin + 1, 0x7fffffffu, kMinus1,
                             0u,   7u,       uint32_t(-7), 12345u};
    const uint32_t dens[] = {kMinus1, 1u, uint32_t(-2), 3u,
                             kMin,    2u, kMinus1,      uint32_t(-7)};
    std::vector<uint32_t> in_num(kN), in_den(kN);
    for (uint32_t l = 0; l < kN; ++l) {
        in_num[l] = nums[l % 8];
        in_den[l] = dens[l / 8 % 8];
    }
    std::vector<uint32_t> want(6 * kN);
    for (uint32_t l = 0; l < kN; ++l) {
        want[6 * l + 0] = wrapDiv(in_num[l], in_den[l]);
        want[6 * l + 1] = wrapRem(in_num[l], in_den[l]);
        want[6 * l + 2] = 0u - in_num[l];
        want[6 * l + 3] = kMin;
        want[6 * l + 4] = 0u;
        want[6 * l + 5] = kMin;
    }
    ASSERT_EQ(wrapDiv(kMin, kMinus1), kMin);
    ASSERT_EQ(wrapRem(kMin, kMinus1), 0u);

    KnobGuard guard;
    for (bool fused : {true, false}) {
        sim::setCompileLowerOptions(
            fused ? sim::LowerOptions{} : sim::LowerOptions::noFusion());
        std::string err;
        auto k = sim::compileKernel(m, sim::gtx1050ti(), sim::Api::Vulkan,
                                    &err);
        ASSERT_NE(k, nullptr) << err;
        auto has = [](const std::vector<sim::MicroOp> &ops, sim::MOp op) {
            return std::any_of(
                ops.begin(), ops.end(),
                [op](const sim::MicroOp &o) { return o.op == op; });
        };
        EXPECT_EQ(has(k->micro->ops, sim::MOp::IDivRem), fused);
        EXPECT_TRUE(has(k->micro->templateOps, sim::MOp::INeg));
        for (sim::ExecTier tier : kAllTiers) {
            sim::setExecutorOverride(tier);
            Outcome o = dispatchOnce(
                m, {in_num, in_den, std::vector<uint32_t>(6 * kN, 0)},
                kGroups, {kMin, kMinus1});
            EXPECT_EQ(o.bufs[2], want)
                << (fused ? "fused" : "unfused") << " lowering, tier "
                << sim::execTierName(tier);
        }
    }
}

/** Converting NaN, an infinity or a float outside [-2^31, 2^31) to a
 *  signed integer is undefined in C++, and SPIR-V leaves it undefined
 *  too.  The simulator defines CvtFS of all of them as INT_MIN on every
 *  tier, for lane-varying operands (loaded per lane, run by the
 *  executors) and for constants (hoisted into the register template),
 *  and truncates everything in range toward zero. */
TEST(FloatToInt, OutOfRangeGivesIntMinOnEveryTier)
{
    constexpr uint32_t kMin = 0x80000000u;
    const float in[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        3e9f, -3e9f, 0x1p31f, -0x1p31f, 1.5f, -1.5f,
                        2147483520.0f};
    const uint32_t want[] = {kMin, kMin, kMin, kMin, kMin, kMin, kMin,
                             1u, uint32_t(-1), 2147483520u};
    constexpr uint32_t kLanes = std::size(in);
    constexpr uint32_t kGroups = 8;
    static_assert(kGroups > kSampledWorkgroups);
    constexpr uint32_t kN = kLanes * kGroups;

    // Row 0 of the output converts in[lane] per lane; row 1 + i
    // converts the constant in[i] in every lane.
    Builder b("cvt_fs", kLanes);
    b.bindStorage(0, ElemType::F32, true);
    b.bindStorage(1, ElemType::I32);
    auto gid = b.globalIdX();
    b.stBuf(1, gid, b.cvtFS(b.ldBuf(0, gid)));
    for (uint32_t i = 0; i < kLanes; ++i)
        b.stBuf(1, b.iadd(gid, b.constI(static_cast<int32_t>(kN * (i + 1)))),
                b.cvtFS(b.constF(in[i])));
    const spirv::Module m = b.finish();

    std::vector<uint32_t> in_bits(kN), expect((kLanes + 1) * kN);
    for (uint32_t l = 0; l < kN; ++l) {
        in_bits[l] = std::bit_cast<uint32_t>(in[l % kLanes]);
        expect[l] = want[l % kLanes];
        for (uint32_t i = 0; i < kLanes; ++i)
            expect[kN * (i + 1) + l] = want[i];
    }

    std::string err;
    auto k = sim::compileKernel(m, sim::gtx1050ti(), sim::Api::Vulkan, &err);
    ASSERT_NE(k, nullptr) << err;
    auto count = [](const std::vector<sim::MicroOp> &ops) {
        return std::count_if(ops.begin(), ops.end(), [](const auto &o) {
            return o.op == sim::MOp::CvtFS;
        });
    };
    EXPECT_EQ(count(k->micro->ops), 1);
    EXPECT_EQ(count(k->micro->templateOps), kLanes);

    KnobGuard guard;
    for (sim::ExecTier tier : kAllTiers) {
        sim::setExecutorOverride(tier);
        Outcome o = dispatchOnce(
            m, {in_bits, std::vector<uint32_t>(expect.size(), 0)}, kGroups);
        EXPECT_EQ(o.bufs[1], expect) << "tier " << sim::execTierName(tier);
    }
}

/**
 * A kernel whose workgroup is wider than one lane block of the block
 * tier but not a multiple of it, so full blocks are followed by tail
 * lanes.  Phase 1 runs contiguous, uniform and scattered loads and
 * stores over the whole workgroup, then an atomic splits it into lane
 * blocks.  Phase 2 exchanges shared memory across the barrier, then
 * takes two branches, each uniform in some blocks and divergent in
 * others, so some blocks run to the barrier as one span and others
 * split again.  The per-workgroup atomic counter returns
 * order-dependent old values, so the lane order of the atomics is
 * checked too.
 */
spirv::Module
partialBlockKernel(uint32_t lanes, uint32_t n, uint32_t groups)
{
    Builder b("partial_blocks_" + std::to_string(lanes), lanes);
    b.bindStorage(0, ElemType::I32, true); // data[n]
    b.bindStorage(1, ElemType::I32, true); // perm[n], a permutation
    b.bindStorage(2, ElemType::I32);       // out[3n + 3 * groups]
    b.bindStorage(3, ElemType::I32);       // counter[groups]
    b.setSharedWords(lanes);
    auto lid = b.localIdX();
    auto gid = b.globalIdX();
    auto grp = b.groupIdX();
    auto one = b.constI(1);
    auto at = [&](uint32_t region, Builder::Reg r) {
        return b.iadd(b.constI(static_cast<int32_t>(region)), r);
    };
    const uint32_t uni = 3 * n; // per-workgroup uniform-store slots

    // Phase 1.
    auto v = b.ldBuf(0, gid);         // contiguous
    auto u = b.ldBuf(0, grp);         // uniform
    auto p = b.ldBuf(1, gid);         // contiguous
    auto s = b.ldBuf(0, p);           // scattered
    b.stBuf(2, at(uni, grp), lid);    // uniform: the last lane wins
    b.stBuf(2, at(n, p), s);          // scattered
    b.stShared(lid, b.iadd(v, s));
    auto old = b.atomIAdd(3, grp, b.iand(v, b.constI(0xff)));
    b.stBuf(2, at(2 * n, gid), old);  // contiguous
    b.barrier();

    // Phase 2.
    auto nb = b.irem(b.iadd(lid, one),
                     b.constI(static_cast<int32_t>(lanes)));
    auto t = b.iadd(b.ldShared(nb), u);
    auto some = b.ilt(b.irem(lid, b.constI(24)), b.constI(12));
    b.ifThenElse(
        some,
        [&] {
            auto q = b.ldBuf(0, b.ldBuf(1, gid)); // scattered
            b.stBuf(2, at(n, p), b.ixor(q, t));   // scattered
            b.stBuf(2, at(uni + groups, grp), t); // uniform
        },
        [&] { b.stBuf(2, gid, t); });             // contiguous
    b.ifThen(b.ilt(b.irem(lid, b.constI(20)), b.constI(3)),
             [&] { b.stBuf(2, gid, b.imul(t, b.constI(3))); });
    b.barrier();

    // Phase 3: every lane resumes at one pc again, then a plain
    // (uncompared) branch lets the first block finish on its own.
    b.stBuf(2, at(uni + 2 * groups, grp), b.ldShared(lid)); // uniform
    b.ifThen(b.iand(b.ult(lid, b.constI(8)), one),
             [&] { b.stBuf(2, at(2 * n, gid), b.ldShared(nb)); });
    return b.finish();
}

/** Workgroups of 12, 20 and 100 lanes (one, two and twelve full
 *  blocks, each plus four tail lanes), nine per dispatch so sampled
 *  and unsampled workgroups both run: every forced tier must match
 *  forced lane-major bit for bit in buffers and DispatchStats. */
TEST(PartialLaneBlocks, EveryTierMatchesLaneMajor)
{
    constexpr uint32_t kGroups = 9;
    static_assert(kGroups > kSampledWorkgroups);
    KnobGuard guard;
    Rng rng(0x5eed23);
    for (uint32_t lanes : {12u, 20u, 100u}) {
        const uint32_t n = lanes * kGroups;
        std::vector<uint32_t> data(n), perm(n);
        for (uint32_t i = 0; i < n; ++i) {
            data[i] = static_cast<uint32_t>(rng.next());
            perm[i] = i;
        }
        for (uint32_t i = n - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.nextBelow(i + 1)]);
        const spirv::Module m = partialBlockKernel(lanes, n, kGroups);
        const std::vector<std::vector<uint32_t>> bufs = {
            data, perm, std::vector<uint32_t>(3 * n + 3 * kGroups, 0),
            std::vector<uint32_t>(kGroups, 0)};

        sim::setExecutorOverride(sim::ExecTier::LaneMajor);
        const Outcome ref = dispatchOnce(m, bufs, kGroups);
        EXPECT_GT(ref.stats.atomicOps, 0u);
        EXPECT_GT(ref.stats.barriers, 0u);
        for (sim::ExecTier tier : kAllTiers) {
            sim::setExecutorOverride(tier);
            const Outcome o = dispatchOnce(m, bufs, kGroups);
            const std::string what = std::to_string(lanes) +
                                     " lanes, tier " +
                                     sim::execTierName(tier);
            for (size_t i = 0; i < bufs.size(); ++i)
                EXPECT_EQ(o.bufs[i], ref.bufs[i])
                    << what << ": buffer " << i;
            EXPECT_TRUE(o.stats == ref.stats)
                << what << ": stats diverge (laneCycles "
                << o.stats.laneCycles << " vs " << ref.stats.laneCycles
                << ", dramTransactions " << o.stats.dramTransactions
                << " vs " << ref.stats.dramTransactions << ")";
        }
    }
}

} // namespace
} // namespace vcb::suite
