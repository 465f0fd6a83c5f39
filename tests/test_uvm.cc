/** @file Unified-memory paging model battery (ISSUE 10 gate).
 *
 *  Four groups, all hand-verifiable because the model is deliberately
 *  simple (src/sim/uvm.h):
 *   1. paging-cost accounting — the per-front-end migrated-bytes /
 *      fault-ns counters and the OpenCL event windows must equal the
 *      hand-computed pages x (migration + fault latency) charges;
 *   2. cfd on the UVM mobile parts — bit-identical host arrays to the
 *      desktop reference across all three APIs and every forced
 *      executor tier, with a nonzero paging cost (the benchmark the
 *      paper skipped wholesale on hard-cap mobiles);
 *   3. the oversubscribed-bandwidth sweep renders byte-identically at
 *      any --jobs count;
 *   4. UVM and hard-cap specs never alias in the compile-cache device
 *      fingerprint.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cuda/cuda_rt.h"
#include "harness/report_book.h"
#include "harness/sweep.h"
#include "kernels/kernels.h"
#include "ocl/ocl.h"
#include "replay.h"
#include "sim/device.h"
#include "sim/device_file.h"
#include "sim/dispatch.h"
#include "sim/microop.h"
#include "sim/uvm.h"
#include "suite/benchmark.h"
#include "suite/vkhelp.h"
#include "suite/workload.h"

namespace vcb {
namespace {

using suite::KnobGuard;

constexpr uint64_t kKiB = 1024;

/** Synthetic UVM part with round numbers, so every expected charge in
 *  this file is hand-computable: 256 KiB heap, 8x oversubscription,
 *  64 KiB pages, 1000 ns migration + 5000 ns fault = 6000 ns/page.
 *  Based on the gtx1050ti profile set so all three APIs are available.
 */
sim::DeviceSpec
uvmTestPart()
{
    sim::DeviceSpec d = sim::gtx1050ti();
    d.name = "UVM Test Part";
    d.mobile = true;
    d.unifiedMemory = true;
    d.deviceHeapBytes = 256 * kKiB;
    d.uvmOversubscription = 8.0;
    d.uvmPageBytes = 64 * kKiB;
    d.uvmMigrationNsPerPage = 1000;
    d.uvmFaultLatencyNs = 5000;
    d.uvmOversubBwDerate = 0.5;
    return d;
}

/** The same part with oversubscription 1: a hard-cap unified device
 *  (uvmPagingEnabled() false) for the failure-surface checks. */
sim::DeviceSpec
hardCapTestPart()
{
    sim::DeviceSpec d = uvmTestPart();
    d.name = "Hard Cap Test Part";
    d.uvmOversubscription = 1.0;
    return d;
}

/** The committed UVM expansion parts (adreno640, mali_g76) from the
 *  devices/ directory ctest points VCB_DEVICES_DIR at. */
std::vector<sim::DeviceSpec>
committedUvmParts()
{
    const char *dir = std::getenv("VCB_DEVICES_DIR");
    if (!dir)
        return {};
    std::vector<sim::DeviceSpec> parts;
    for (sim::DeviceSpec &d : sim::loadDeviceDir(dir))
        if (d.uvmPagingEnabled())
            parts.push_back(std::move(d));
    return parts;
}

// ---------------------------------------------------------------------------
// 1. paging-cost accounting
// ---------------------------------------------------------------------------

TEST(UvmAccounting, PlacementCapAndDerateFollowTheModel)
{
    sim::DeviceSpec dev = uvmTestPart();
    EXPECT_TRUE(dev.uvmPagingEnabled());
    EXPECT_EQ(dev.uvmCapBytes(), 8 * 256 * kKiB);

    sim::UvmAccounting uvm(dev);
    using P = sim::UvmAccounting::Placement;
    EXPECT_EQ(uvm.alloc(128 * kKiB), P::DeviceLocal);
    EXPECT_EQ(uvm.heapUsed(), 128 * kKiB);
    EXPECT_FALSE(uvm.oversubscribed());
    EXPECT_EQ(uvm.bwDerate(), 1.0);

    // Tips past the heap: paged, oversubscribed, derated.
    EXPECT_EQ(uvm.alloc(256 * kKiB), P::Paged);
    EXPECT_EQ(uvm.heapUsed(), 384 * kKiB);
    EXPECT_TRUE(uvm.oversubscribed());
    EXPECT_EQ(uvm.bwDerate(), 0.5);

    // Past the cap: fails and usage is unchanged.
    EXPECT_EQ(uvm.alloc(dev.uvmCapBytes()), P::TooBig);
    EXPECT_EQ(uvm.heapUsed(), 384 * kKiB);

    // Freeing drops back under the heap: derate ends.
    uvm.free(256 * kKiB);
    EXPECT_EQ(uvm.heapUsed(), 128 * kKiB);
    EXPECT_FALSE(uvm.oversubscribed());
    EXPECT_EQ(uvm.bwDerate(), 1.0);

    // Hand-computed migration charges: ceiling pages x 6000 ns.
    EXPECT_EQ(sim::uvmPagesFor(dev, 1), 1u);
    EXPECT_EQ(sim::uvmPagesFor(dev, 64 * kKiB), 1u);
    EXPECT_EQ(sim::uvmPagesFor(dev, 64 * kKiB + 1), 2u);
    EXPECT_EQ(sim::uvmPagesFor(dev, 512 * kKiB), 8u);
    EXPECT_DOUBLE_EQ(sim::uvmMigrateNs(dev, 512 * kKiB), 48000.0);
}

TEST(UvmPagingCost, OpenClFirstTouchEvictionAndEventWindows)
{
    sim::DeviceSpec dev = uvmTestPart();
    const uint64_t bytes = 512 * kKiB; // 8 pages, 48000 ns to migrate
    const double migrate_ns = sim::uvmMigrateNs(dev, bytes);

    ocl::Context ctx(dev);
    auto prog =
        ocl::createProgramWithSource(ctx, kernels::buildStridedRead());
    std::string err;
    ASSERT_TRUE(ocl::buildProgram(prog, &err)) << err;
    auto k = ocl::createKernel(prog, "stridedRead", &err);
    ASSERT_TRUE(k.valid()) << err;

    // Guard first so it stays device-local; the big source buffer then
    // tips past the heap and is the only paged allocation.
    auto b_guard = ocl::createBuffer(ctx, ocl::MemReadWrite, 4);
    auto b_src = ocl::createBuffer(ctx, ocl::MemReadOnly, bytes);
    ASSERT_TRUE(b_guard.valid() && b_src.valid());
    EXPECT_EQ(ocl::heapUsed(ctx), bytes + 4);

    std::vector<uint32_t> init(bytes / 4, 1u);
    ocl::enqueueWriteBuffer(ctx, b_src, true, 0, bytes, init.data());
    EXPECT_EQ(ocl::uvmMigratedBytes(ctx), 0u); // host writes are free

    ocl::setKernelArgBuffer(k, 0, b_src);
    ocl::setKernelArgBuffer(k, 1, b_guard);
    ocl::setKernelArgScalar(k, 0, 1u);   // stride
    ocl::setKernelArgScalar(k, 1, 4u);   // rounds
    ocl::setKernelArgScalar(k, 2, 256u); // threads

    // First touch: the launch pages the source in, charged as device
    // time ahead of the kernel inside the event window.
    ocl::Event first = ocl::enqueueNDRangeKernel(ctx, k, 256);
    ctx.finish();
    EXPECT_EQ(ocl::uvmMigratedBytes(ctx), bytes);
    EXPECT_DOUBLE_EQ(ocl::uvmFaultNs(ctx), migrate_ns);

    // Resident now: a second identical launch charges nothing more,
    // and its event window is exactly migrate_ns shorter.
    ocl::Event second = ocl::enqueueNDRangeKernel(ctx, k, 256);
    ctx.finish();
    EXPECT_EQ(ocl::uvmMigratedBytes(ctx), bytes);
    EXPECT_DOUBLE_EQ(ocl::uvmFaultNs(ctx), migrate_ns);
    EXPECT_DOUBLE_EQ((first.endNs() - first.startNs()) -
                         (second.endNs() - second.startNs()),
                     migrate_ns);

    // Host access evicts: the next launch migrates all 8 pages again.
    ocl::enqueueWriteBuffer(ctx, b_src, true, 0, bytes, init.data());
    ocl::enqueueNDRangeKernel(ctx, k, 256);
    ctx.finish();
    EXPECT_EQ(ocl::uvmMigratedBytes(ctx), 2 * bytes);
    EXPECT_DOUBLE_EQ(ocl::uvmFaultNs(ctx), 2 * migrate_ns);
}

TEST(UvmPagingCost, CudaCountersMatchAndHostCopyEvicts)
{
    sim::DeviceSpec dev = uvmTestPart();
    const uint64_t bytes = 512 * kKiB;
    const double migrate_ns = sim::uvmMigrateNs(dev, bytes);

    cuda::Runtime rt(dev);
    auto f = rt.loadFunction(kernels::buildStridedRead());
    auto d_guard = rt.malloc(4);
    auto d_src = rt.malloc(bytes);
    ASSERT_TRUE(d_guard.valid() && d_src.valid());
    EXPECT_EQ(cuda::heapUsed(rt), bytes + 4);

    std::vector<uint32_t> init(bytes / 4, 1u);
    rt.memcpyHtoD(d_src, init.data(), bytes);
    EXPECT_EQ(cuda::uvmMigratedBytes(rt), 0u);

    rt.launchKernel(f, 1, 1, 1, {d_src, d_guard}, {1u, 4u, 256u});
    rt.streamSynchronize();
    EXPECT_EQ(cuda::uvmMigratedBytes(rt), bytes);
    EXPECT_DOUBLE_EQ(cuda::uvmFaultNs(rt), migrate_ns);

    // Resident: no further charge.
    rt.launchKernel(f, 1, 1, 1, {d_src, d_guard}, {1u, 4u, 256u});
    rt.streamSynchronize();
    EXPECT_EQ(cuda::uvmMigratedBytes(rt), bytes);

    // A device->host copy is a host access too: evicts, re-migrates.
    rt.memcpyDtoH(init.data(), d_src, bytes);
    rt.launchKernel(f, 1, 1, 1, {d_src, d_guard}, {1u, 4u, 256u});
    rt.streamSynchronize();
    EXPECT_EQ(cuda::uvmMigratedBytes(rt), 2 * bytes);
    EXPECT_DOUBLE_EQ(cuda::uvmFaultNs(rt), 2 * migrate_ns);
}

TEST(UvmPagingCost, VulkanCountersMatchAcrossSubmits)
{
    sim::ScopedDeviceRegistry reg({uvmTestPart()});
    const sim::DeviceSpec &dev = reg.devices()[0];
    const uint64_t bytes = 512 * kKiB;
    const double migrate_ns = sim::uvmMigrateNs(dev, bytes);

    suite::VkContext ctx = suite::VkContext::create(dev);
    suite::VkKernel k;
    std::string err =
        suite::createVkKernel(ctx, kernels::buildStridedRead(), &k);
    ASSERT_EQ(err, "");

    auto b_guard = ctx.createDeviceBuffer(4);
    auto b_src = ctx.createDeviceBuffer(bytes);
    ASSERT_TRUE(b_guard.valid() && b_src.valid());
    std::vector<uint32_t> init(bytes / 4, 1u);
    ASSERT_TRUE(ctx.upload(b_src, init.data(), bytes));
    auto set = suite::makeDescriptorSet(ctx, k,
                                        {{0, b_src}, {1, b_guard}});

    auto submitOnce = [&]() {
        vkm::CommandBuffer cb;
        vkm::check(vkm::allocateCommandBuffer(ctx.device, ctx.cmdPool,
                                              &cb),
                   "allocateCommandBuffer");
        vkm::check(vkm::beginCommandBuffer(cb), "beginCommandBuffer");
        vkm::cmdBindPipeline(cb, k.pipeline);
        vkm::cmdBindDescriptorSet(cb, k.layout, 0, set);
        uint32_t push[3] = {1, 4, 256};
        vkm::cmdPushConstants(cb, k.layout, 0, 12, push);
        vkm::cmdDispatch(cb, 1, 1, 1);
        vkm::check(vkm::endCommandBuffer(cb), "endCommandBuffer");
        vkm::Fence fence;
        vkm::check(vkm::createFence(ctx.device, &fence), "createFence");
        vkm::SubmitInfo si;
        si.commandBuffers.push_back(cb);
        vkm::check(vkm::queueSubmit(ctx.queue, {si}, fence),
                   "queueSubmit");
        vkm::check(vkm::waitForFences(ctx.device, {fence}),
                   "waitForFences");
    };

    // The upload mapped the paged source (non-resident); the first
    // dispatch touching it pays exactly the hand-computed migration.
    submitOnce();
    EXPECT_EQ(vkm::uvmMigratedBytes(ctx.device), bytes);
    EXPECT_DOUBLE_EQ(vkm::uvmFaultNs(ctx.device), migrate_ns);

    // Still resident across a second submission: no further charge.
    submitOnce();
    EXPECT_EQ(vkm::uvmMigratedBytes(ctx.device), bytes);
    EXPECT_DOUBLE_EQ(vkm::uvmFaultNs(ctx.device), migrate_ns);
}

/** Satellite: past-the-cap allocation fails identically on all three
 *  front-ends — invalid handle, never a crash — on both the UVM part
 *  (beyond uvmCapBytes) and the hard-cap part (beyond the heap). */
TEST(UvmHardCap, AllocationFailureSurfaceAgreesAcrossFrontEnds)
{
    for (const sim::DeviceSpec &spec :
         {uvmTestPart(), hardCapTestPart()}) {
        sim::ScopedDeviceRegistry reg({spec});
        const sim::DeviceSpec &dev = reg.devices()[0];
        const uint64_t too_big = dev.uvmCapBytes() + dev.uvmPageBytes;

        ocl::Context octx(dev);
        EXPECT_FALSE(
            ocl::createBuffer(octx, ocl::MemReadWrite, too_big).valid())
            << dev.name;

        cuda::Runtime rt(dev);
        EXPECT_FALSE(rt.malloc(too_big).valid()) << dev.name;

        suite::VkContext vctx = suite::VkContext::create(dev);
        EXPECT_FALSE(vctx.createDeviceBuffer(too_big).valid())
            << dev.name;
    }
    // The hard-cap part really is hard-capped: the first byte past the
    // heap already fails (on the UVM part it pages instead).
    sim::DeviceSpec hard = hardCapTestPart();
    EXPECT_EQ(hard.uvmCapBytes(), hard.deviceHeapBytes);
    sim::UvmAccounting uvm(hard);
    EXPECT_EQ(uvm.alloc(hard.deviceHeapBytes + 4),
              sim::UvmAccounting::Placement::TooBig);
}

// ---------------------------------------------------------------------------
// 2. cfd on the UVM mobile parts
// ---------------------------------------------------------------------------

/** cfd — wholesale-skipped on the paper's hard-cap mobiles — must run
 *  on the committed UVM parts under all three APIs, pay a nonzero
 *  paging cost, validate, and produce host arrays bit-identical to a
 *  desktop reference run of the same workload. */
TEST(UvmCfd, MobileRunsBitIdenticalToDesktopAcrossApis)
{
    std::vector<sim::DeviceSpec> parts = committedUvmParts();
    if (parts.empty())
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    ASSERT_EQ(parts.size(), 2u); // adreno640 + mali_g76
    // The shipped parts expose no CUDA driver; model one from each
    // part's OpenCL profile so the CUDA front-end hits paging too.
    for (sim::DeviceSpec &d : parts)
        d.apis[static_cast<int>(sim::Api::Cuda)] =
            d.apis[static_cast<int>(sim::Api::OpenCl)];
    parts.push_back(sim::gtx1050ti());
    sim::ScopedDeviceRegistry reg(std::move(parts));
    const sim::DeviceSpec &desktop = reg.devices().back();

    const suite::Benchmark &cfd = suite::byName("cfd");
    for (const suite::SizeConfig &cfg : cfd.mobileSizes()) {
        suite::Workload w = cfd.workload(cfg);
        suite::HostArrays ref;
        suite::RunResult rr =
            suite::runWorkload(w, desktop, sim::Api::Vulkan, {}, &ref);
        ASSERT_TRUE(rr.ok) << rr.skipReason;
        EXPECT_TRUE(rr.validated) << rr.validationError;
        EXPECT_EQ(rr.migratedBytes, 0u); // desktop never pages

        for (size_t di = 0; di + 1 < reg.devices().size(); ++di) {
            const sim::DeviceSpec &dev = reg.devices()[di];
            ASSERT_EQ(cfd.mobileSkipReason(dev), "") << dev.name;
            for (sim::Api api : {sim::Api::Vulkan, sim::Api::OpenCl,
                                 sim::Api::Cuda}) {
                suite::HostArrays got;
                suite::RunResult r =
                    suite::runWorkload(w, dev, api, {}, &got);
                std::string what = dev.name + "/" +
                                   std::string(sim::apiName(api)) +
                                   "/" + cfg.label;
                ASSERT_TRUE(r.ok) << what << ": " << r.skipReason;
                EXPECT_TRUE(r.validated)
                    << what << ": " << r.validationError;
                EXPECT_GT(r.migratedBytes, 0u) << what;
                EXPECT_GT(r.faultNs, 0.0) << what;
                EXPECT_EQ(got, ref) << what;
            }
        }
    }
}

/** Executor tiers are host-speed knobs: forcing each tier on a paging
 *  run must leave outputs, simulated time and the paging charges
 *  bit-identical to the auto-tier reference. */
TEST(UvmCfd, ExecutorTiersPreserveIdentityUnderPaging)
{
    std::vector<sim::DeviceSpec> parts = committedUvmParts();
    if (parts.empty())
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    sim::ScopedDeviceRegistry reg({parts[0]});
    const sim::DeviceSpec &dev = reg.devices()[0];

    const suite::Benchmark &cfd = suite::byName("cfd");
    suite::Workload w = cfd.workload(cfd.mobileSizes()[0]);
    KnobGuard guard;

    sim::setExecutorOverride(sim::ExecTier::Count); // auto
    suite::HostArrays ref;
    suite::RunResult rr =
        suite::runWorkload(w, dev, sim::Api::Vulkan, {}, &ref);
    ASSERT_TRUE(rr.ok) << rr.skipReason;
    ASSERT_GT(rr.migratedBytes, 0u);

    for (sim::ExecTier tier :
         {sim::ExecTier::Trace, sim::ExecTier::Block,
          sim::ExecTier::LaneMajor, sim::ExecTier::Instrumented}) {
        sim::setExecutorOverride(tier);
        suite::HostArrays got;
        suite::RunResult r =
            suite::runWorkload(w, dev, sim::Api::Vulkan, {}, &got);
        std::string what =
            "tier " + std::to_string(static_cast<int>(tier));
        ASSERT_TRUE(r.ok) << what << ": " << r.skipReason;
        EXPECT_EQ(got, ref) << what;
        EXPECT_EQ(r.kernelRegionNs, rr.kernelRegionNs) << what;
        EXPECT_EQ(r.migratedBytes, rr.migratedBytes) << what;
        EXPECT_EQ(r.faultNs, rr.faultNs) << what;
        EXPECT_TRUE(r.validated) << what << ": " << r.validationError;
    }
}

// ---------------------------------------------------------------------------
// 3. oversub sweep parallel byte-identity
// ---------------------------------------------------------------------------

/** Render the oversub section through the sweep executor at a given
 *  job count — the exact plan/run/render split buildReportBook uses. */
std::string
renderOversubAt(const std::vector<sim::DeviceSpec> &parts,
                unsigned jobs)
{
    std::vector<harness::OversubPanel> panels(parts.size());
    std::vector<suite::OversubConfig> cfgs(parts.size());
    std::vector<std::pair<size_t, int>> cells;
    for (size_t di = 0; di < parts.size(); ++di) {
        panels[di] = harness::planOversubPanel(parts[di], true,
                                               cfgs[di]);
        for (int a = 0; a < sim::apiCount; ++a)
            if (panels[di].apiRun[a])
                cells.emplace_back(di, a);
    }
    harness::SweepOptions opts;
    opts.jobs = jobs;
    opts.devices = parts;
    harness::runSweepPlan(
        cells.size(),
        [&](size_t ci) {
            size_t di = cells[ci].first;
            int a = cells[ci].second;
            harness::runOversubPanelApi(panels[di],
                                        static_cast<sim::Api>(a),
                                        sim::activeDeviceRegistry()[di],
                                        cfgs[di]);
        },
        opts);
    return harness::renderOversubSection(panels, true);
}

TEST(UvmOversub, SweepRendersByteIdenticalAtAnyJobCount)
{
    std::vector<sim::DeviceSpec> parts = committedUvmParts();
    if (parts.empty())
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    std::string serial = renderOversubAt(parts, 1);
    std::string parallel = renderOversubAt(parts, 4);
    ASSERT_NE(serial.find("migrated"), std::string::npos);
    ASSERT_NE(serial.find("2.00"), std::string::npos);
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// 4. compile-cache fingerprint non-aliasing
// ---------------------------------------------------------------------------

TEST(UvmFingerprint, UvmAndHardCapSpecsNeverAlias)
{
    sim::DeviceSpec uvm = uvmTestPart();
    sim::DeviceSpec hard = hardCapTestPart();
    hard.name = uvm.name; // only the UVM fields differ
    EXPECT_NE(sim::hashDevice(uvm), sim::hashDevice(hard));
    EXPECT_NE(sim::serializeDevice(uvm), sim::serializeDevice(hard));

    // Every UVM field individually moves the fingerprint on a unified
    // part (the compile cache keys device behaviour on it).
    const uint64_t base = sim::hashDevice(uvm);
    sim::DeviceSpec t = uvm;
    t.uvmOversubscription = 16.0;
    EXPECT_NE(sim::hashDevice(t), base);
    t = uvm;
    t.uvmPageBytes = 4096;
    EXPECT_NE(sim::hashDevice(t), base);
    t = uvm;
    t.uvmMigrationNsPerPage = 1001;
    EXPECT_NE(sim::hashDevice(t), base);
    t = uvm;
    t.uvmFaultLatencyNs = 5001;
    EXPECT_NE(sim::hashDevice(t), base);
    t = uvm;
    t.uvmOversubBwDerate = 0.25;
    EXPECT_NE(sim::hashDevice(t), base);

    // On a non-unified part the UVM fields are inert and deliberately
    // excluded: two such specs fingerprint identically.
    sim::DeviceSpec desk1 = sim::gtx1050ti();
    sim::DeviceSpec desk2 = desk1;
    desk2.uvmPageBytes = 4096;
    ASSERT_FALSE(desk1.unifiedMemory);
    EXPECT_EQ(sim::hashDevice(desk1), sim::hashDevice(desk2));
    EXPECT_EQ(sim::serializeDevice(desk1), sim::serializeDevice(desk2));
}

} // namespace
} // namespace vcb
