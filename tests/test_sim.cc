/** @file Simulator plumbing: device registry, driver profiles, kernel
 *  compilation, the coalescing sampler, the timing model and the
 *  host/queue timelines. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "sim/device.h"
#include "sim/device_file.h"
#include "sim/kernel.h"
#include "sim/sampler.h"
#include "sim/timeline.h"
#include "sim/timing.h"
#include "spirv/builder.h"

namespace vcb::sim {
namespace {

using spirv::Builder;
using spirv::ElemType;

// --- device registry -----------------------------------------------------

TEST(DeviceRegistry, HasTheFourPaperDevices)
{
    const auto &devices = deviceRegistry();
    ASSERT_EQ(devices.size(), 4u);
    EXPECT_EQ(devices[0].name, "NVIDIA GTX1050Ti");
    EXPECT_EQ(devices[1].name, "AMD RX560");
    EXPECT_FALSE(devices[0].mobile);
    EXPECT_FALSE(devices[1].mobile);
    EXPECT_TRUE(devices[2].mobile);
    EXPECT_TRUE(devices[3].mobile);
}

TEST(DeviceRegistry, ApiAvailabilityMatrix)
{
    // CUDA only on NVIDIA; Vulkan and OpenCL everywhere (Table II/III).
    for (const auto &d : deviceRegistry()) {
        EXPECT_TRUE(d.profile(Api::Vulkan).available) << d.name;
        EXPECT_TRUE(d.profile(Api::OpenCl).available) << d.name;
        EXPECT_EQ(d.profile(Api::Cuda).available, d.vendor == "NVIDIA")
            << d.name;
    }
}

TEST(DeviceRegistry, PushConstantLimitsMatchPaper)
{
    EXPECT_EQ(gtx1050ti().maxPushBytes, 256u);
    EXPECT_EQ(rx560().maxPushBytes, 128u);
    EXPECT_EQ(adreno506().maxPushBytes, 128u);
    EXPECT_EQ(powervrG6430().maxPushBytes, 128u);
}

TEST(DeviceRegistry, PaperDriverFailuresAreModelled)
{
    // Snapdragon: lud OpenCL fails; Nexus: backprop fails on both.
    EXPECT_TRUE(adreno506().profile(Api::OpenCl).kernelBroken(
        "lud_diagonal"));
    EXPECT_FALSE(adreno506().profile(Api::Vulkan).kernelBroken(
        "lud_diagonal"));
    EXPECT_TRUE(powervrG6430().profile(Api::OpenCl).kernelBroken(
        "backprop_layerforward"));
    EXPECT_TRUE(powervrG6430().profile(Api::Vulkan).kernelBroken(
        "backprop_adjust_weights"));
    EXPECT_FALSE(gtx1050ti().profile(Api::Vulkan).kernelBroken(
        "backprop_layerforward"));
}

TEST(DeviceRegistry, CompilerMaturityMatrix)
{
    // Mature CL/CUDA compilers promote; young Vulkan ones do not.
    for (const auto &d : deviceRegistry()) {
        EXPECT_FALSE(d.profile(Api::Vulkan).localMemPromotion) << d.name;
        EXPECT_TRUE(d.profile(Api::OpenCl).localMemPromotion) << d.name;
    }
    EXPECT_TRUE(gtx1050ti().profile(Api::Cuda).localMemPromotion);
}

TEST(DeviceRegistry, LookupByName)
{
    EXPECT_EQ(&deviceByName("rx560"), &rx560());
    EXPECT_EQ(&deviceByName("Adreno"), &adreno506());
    EXPECT_GT(gtx1050ti().lanesPerNs(), 1000.0);
}

TEST(DeviceRegistry, LookupRejectsEmptyAndAmbiguousNames)
{
    const char *dir = std::getenv("VCB_DEVICES_DIR");
    if (!dir)
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    ScopedDeviceRegistry reg(loadDeviceDir(dir));

    std::string why;
    EXPECT_EQ(findDevice("adreno", &why), nullptr);
    EXPECT_NE(why.find("Qualcomm Adreno 506"), std::string::npos) << why;
    EXPECT_NE(why.find("Qualcomm Adreno 640"), std::string::npos) << why;
    why.clear();
    EXPECT_EQ(findDevice("", &why), nullptr);
    EXPECT_NE(why.find("ambiguous"), std::string::npos) << why;

    const DeviceSpec *d = findDevice("adreno640");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name, "Qualcomm Adreno 640");
    d = findDevice("Qualcomm Adreno 506");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name, "Qualcomm Adreno 506");
}

TEST(DeviceRegistry, KernelTimeFactors)
{
    const DriverProfile &nexus_vk = powervrG6430().profile(Api::Vulkan);
    EXPECT_GT(nexus_vk.kernelTimeFactor("hotspot_step", true), 1.5);
    EXPECT_DOUBLE_EQ(nexus_vk.kernelTimeFactor("nn_euclid", false), 1.0);
    const DriverProfile &adreno_vk = adreno506().profile(Api::Vulkan);
    EXPECT_GT(adreno_vk.kernelTimeFactor("lud_internal", true), 1.5);
    EXPECT_DOUBLE_EQ(adreno_vk.kernelTimeFactor("nn_euclid", false),
                     1.0);
}

// --- kernel compilation ----------------------------------------------------

spirv::Module
simpleModule(const std::string &name, uint32_t local = 64,
             uint32_t push_words = 0)
{
    Builder b(name, local);
    b.bindStorage(0, ElemType::I32);
    if (push_words)
        b.setPushWords(push_words);
    b.stBuf(0, b.constI(0), b.globalIdX());
    return b.finish();
}

TEST(CompileKernel, SucceedsOnSupportedApi)
{
    std::string err;
    auto k = compileKernel(simpleModule("ok"), gtx1050ti(), Api::Cuda,
                           &err);
    ASSERT_NE(k, nullptr) << err;
    EXPECT_EQ(k->api, Api::Cuda);
    EXPECT_EQ(k->localCount(), 64u);
    EXPECT_EQ(k->numSites, 1u);
}

TEST(CompileKernel, FailsWhenApiUnavailable)
{
    std::string err;
    EXPECT_EQ(compileKernel(simpleModule("x"), rx560(), Api::Cuda, &err),
              nullptr);
    EXPECT_NE(err.find("not available"), std::string::npos);
}

TEST(CompileKernel, FailsOnBrokenKernel)
{
    std::string err;
    EXPECT_EQ(compileKernel(simpleModule("lud_diagonal"), adreno506(),
                            Api::OpenCl, &err),
              nullptr);
    EXPECT_NE(err.find("driver failure"), std::string::npos);
}

TEST(CompileKernel, FailsOnWorkgroupLimit)
{
    std::string err;
    // Mobile parts cap workgroups at 512 invocations.
    EXPECT_EQ(compileKernel(simpleModule("big", 1024), adreno506(),
                            Api::Vulkan, &err),
              nullptr);
    EXPECT_NE(err.find("exceeds device limit"), std::string::npos);
}

TEST(CompileKernel, FailsOnPushLimit)
{
    std::string err;
    // 48 words = 192 B fits the GTX (256 B) but not the RX560 (128 B).
    spirv::Module m = simpleModule("pushy", 64, 48);
    EXPECT_NE(compileKernel(m, gtx1050ti(), Api::Vulkan, &err), nullptr);
    EXPECT_EQ(compileKernel(m, rx560(), Api::Vulkan, &err), nullptr);
    EXPECT_NE(err.find("push"), std::string::npos);
}

TEST(CompileKernel, JitCostOnlyForOpenCl)
{
    std::string err;
    auto cl = compileKernel(simpleModule("k"), gtx1050ti(), Api::OpenCl,
                            &err);
    auto vk = compileKernel(simpleModule("k"), gtx1050ti(), Api::Vulkan,
                            &err);
    auto cu = compileKernel(simpleModule("k"), gtx1050ti(), Api::Cuda,
                            &err);
    ASSERT_TRUE(cl && vk && cu);
    EXPECT_GT(cl->compileNs, 0.0);
    EXPECT_GT(vk->compileNs, 0.0); // pipeline creation
    EXPECT_DOUBLE_EQ(cu->compileNs, 0.0); // offline fat binary
    EXPECT_GT(cl->compileNs, vk->compileNs);
}

// --- sampler -----------------------------------------------------------------

TEST(Sampler, UnitStrideCoalesces)
{
    CoalesceSampler s(1, 32, 64, 64);
    s.beginWorkgroup();
    for (uint32_t lane = 0; lane < 64; ++lane)
        s.record(lane, 0, lane * 4);
    s.endWorkgroup();
    // 2 warps x 2 lines / 64 accesses.
    EXPECT_NEAR(s.ratioFor(0), 4.0 / 64.0, 1e-9);
    EXPECT_TRUE(s.sampled(0));
}

TEST(Sampler, ScatteredAccessesAreUncoalesced)
{
    CoalesceSampler s(1, 32, 64, 32);
    s.beginWorkgroup();
    for (uint32_t lane = 0; lane < 32; ++lane)
        s.record(lane, 0, lane * 4096); // each its own line
    s.endWorkgroup();
    EXPECT_NEAR(s.ratioFor(0), 1.0, 1e-9);
}

TEST(Sampler, OccurrencesGroupSeparately)
{
    CoalesceSampler s(1, 32, 64, 32);
    s.beginWorkgroup();
    // Two occurrences per lane, each occurrence unit-stride.
    for (uint32_t occ = 0; occ < 2; ++occ)
        for (uint32_t lane = 0; lane < 32; ++lane)
            s.record(lane, 0, (occ * 1024 + lane) * 4);
    s.endWorkgroup();
    EXPECT_NEAR(s.ratioFor(0), 4.0 / 64.0, 1e-9);
}

TEST(Sampler, UnsampledSiteFallsBackToUncoalesced)
{
    CoalesceSampler s(2, 32, 64, 32);
    EXPECT_FALSE(s.sampled(1));
    EXPECT_DOUBLE_EQ(s.ratioFor(1), 1.0);
}

TEST(Sampler, LaneVectorsRecordWhatLaneMajorOrderRecords)
{
    // The trace/block executors record op by op (recordLanes over a
    // lane range); the lane-major executors record lane by lane.
    // Seeded random op streams — contiguous, uniform, strided and
    // scattered address vectors over lane ranges that start mid-warp,
    // enough ops per site that lanes pass the sampler's occurrence cap
    // (128) into its saturated last bucket, power-of-two and
    // non-power-of-two warp/line sizes — must give bit-identical
    // ratios.
    constexpr uint32_t kOccCap = 128;
    struct Shape
    {
        uint32_t sites, warp, line, lanes;
    };
    for (const Shape sh : {Shape{3, 32, 64, 96}, Shape{2, 24, 48, 80},
                           Shape{1, 8, 64, 16}}) {
        CoalesceSampler op_major(sh.sites, sh.warp, sh.line, sh.lanes);
        CoalesceSampler lane_major(sh.sites, sh.warp, sh.line, sh.lanes);
        Rng rng(sh.warp * 1000 + sh.lanes);
        uint32_t max_occ = 0;
        for (int wg = 0; wg < 3; ++wg) {
            struct Op
            {
                uint32_t site, begin, end;
                std::vector<uint32_t> addr;
            };
            std::vector<Op> ops;
            std::vector<uint32_t> occ(size_t(sh.sites) * sh.lanes, 0);
            for (uint32_t i = 0; i < 600 * sh.sites; ++i) {
                Op op;
                op.site = static_cast<uint32_t>(rng.nextBelow(sh.sites));
                op.begin = static_cast<uint32_t>(rng.nextBelow(sh.lanes));
                op.end = op.begin + 1 +
                         static_cast<uint32_t>(
                             rng.nextBelow(sh.lanes - op.begin));
                const uint32_t base =
                    static_cast<uint32_t>(rng.nextBelow(1u << 20));
                const uint64_t pattern = rng.nextBelow(4);
                for (uint32_t l = op.begin; l < op.end; ++l) {
                    const uint32_t a =
                        pattern == 0   ? base + l
                        : pattern == 1 ? base
                        : pattern == 2 ? base + 37 * l
                                       : static_cast<uint32_t>(
                                             rng.nextBelow(1u << 20));
                    op.addr.push_back(a);
                    max_occ = std::max(
                        max_occ, ++occ[size_t(op.site) * sh.lanes + l]);
                }
                ops.push_back(std::move(op));
            }
            op_major.beginWorkgroup();
            for (const Op &op : ops)
                op_major.recordLanes(op.begin, op.end - op.begin, op.site,
                                     op.addr.data());
            op_major.endWorkgroup();
            lane_major.beginWorkgroup();
            for (uint32_t lane = 0; lane < sh.lanes; ++lane)
                for (const Op &op : ops)
                    if (lane >= op.begin && lane < op.end)
                        lane_major.record(
                            lane, op.site,
                            uint64_t(op.addr[lane - op.begin]) * 4);
            lane_major.endWorkgroup();
        }
        EXPECT_GT(max_occ, kOccCap) << "warp " << sh.warp;
        for (uint32_t s = 0; s < sh.sites; ++s) {
            EXPECT_TRUE(op_major.sampled(s));
            EXPECT_EQ(op_major.sampled(s), lane_major.sampled(s));
            EXPECT_EQ(op_major.ratioFor(s), lane_major.ratioFor(s))
                << "site " << s << " warp " << sh.warp;
        }
    }
}

// --- timing model -------------------------------------------------------------

TEST(TimingModel, MemoryBoundKernelScalesWithBytes)
{
    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto k = compileKernel(simpleModule("t"), dev, Api::Vulkan, &err);
    ASSERT_TRUE(k);
    DispatchStats a, b;
    a.dramAccesses = 1 << 20;
    a.dramTransactions = double(a.dramAccesses) / 16.0;
    b = a;
    b.dramAccesses *= 2;
    b.dramTransactions *= 2;
    double ta = TimingModel::kernelExecNs(dev, *k, a);
    double tb = TimingModel::kernelExecNs(dev, *k, b);
    EXPECT_NEAR(tb / ta, 2.0, 1e-6);
}

TEST(TimingModel, ComputeBoundKernelIgnoresSmallTraffic)
{
    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto k = compileKernel(simpleModule("t"), dev, Api::Vulkan, &err);
    ASSERT_TRUE(k);
    DispatchStats s;
    s.laneCycles = 1ull << 30;
    s.dramAccesses = 16;
    s.dramTransactions = 1;
    double t = TimingModel::kernelExecNs(dev, *k, s);
    EXPECT_NEAR(t, double(s.laneCycles) / dev.lanesPerNs(), t * 0.01);
}

TEST(TimingModel, TransferMatchesLinkBandwidth)
{
    // 12 MB over a 12 GB/s link = 1 ms.
    EXPECT_NEAR(TimingModel::transferNs(gtx1050ti(), 12u << 20),
                (12u << 20) / 12.0, 1.0);
}

// --- timeline -----------------------------------------------------------------

TEST(Timeline, HostAdvanceAccumulates)
{
    Timeline t(1);
    t.hostAdvance(100);
    t.hostAdvance(50);
    EXPECT_DOUBLE_EQ(t.hostNow(), 150.0);
}

TEST(Timeline, EnqueueAheadPipelines)
{
    // Device-bound: host enqueues 10 x 10ns of work instantly; total
    // device time dominates.
    Timeline t(1);
    for (int i = 0; i < 10; ++i) {
        t.hostAdvance(1);
        t.enqueue(0, 10);
    }
    EXPECT_DOUBLE_EQ(t.queueReady(0), 1 + 10 * 10);
    t.hostWaitQueue(0, 5);
    EXPECT_DOUBLE_EQ(t.hostNow(), 101 + 5);
}

TEST(Timeline, HostBoundWhenEnqueueSlowerThanDevice)
{
    Timeline t(1);
    for (int i = 0; i < 10; ++i) {
        t.hostAdvance(20); // slow host
        t.enqueue(0, 5);   // quick kernels
    }
    // Each kernel starts when enqueued; completion tracks the host.
    EXPECT_DOUBLE_EQ(t.queueReady(0), 10 * 20 + 5);
}

TEST(Timeline, BlockingLoopSerialises)
{
    // The multi-kernel method: launch, wait, repeat.
    Timeline t(1);
    for (int i = 0; i < 4; ++i) {
        t.hostAdvance(6);      // launch overhead
        double end = t.enqueue(0, 30);
        t.hostWaitUntil(end, 14); // sync wakeup
    }
    EXPECT_DOUBLE_EQ(t.hostNow(), 4 * (6 + 30 + 14));
}

TEST(Timeline, QueuesRunIndependently)
{
    Timeline t(2);
    t.enqueue(0, 100);
    t.enqueue(1, 40);
    EXPECT_DOUBLE_EQ(t.queueReady(0), 100.0);
    EXPECT_DOUBLE_EQ(t.queueReady(1), 40.0);
    t.hostWaitAll(0);
    EXPECT_DOUBLE_EQ(t.hostNow(), 100.0);
}

TEST(Timeline, QueueWaitUntilModelsSemaphores)
{
    Timeline t(2);
    double producer_done = t.enqueue(0, 100);
    t.queueWaitUntil(1, producer_done);
    double consumer_done = t.enqueue(1, 10);
    EXPECT_DOUBLE_EQ(consumer_done, 110.0);
}

} // namespace
} // namespace vcb::sim
