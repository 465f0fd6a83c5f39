/** @file Interpreter semantics: every op class, builtins, control
 *  flow, barriers, shared memory, atomics, robust access, stats and
 *  the coalescing model. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "kernels/kernels.h"
#include "sim/compile_cache.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "spirv/builder.h"

namespace vcb::sim {
namespace {

using spirv::Builder;
using spirv::ElemType;

/** Compile for the GTX1050Ti under Vulkan and run one dispatch. */
DispatchResult
runKernel(const spirv::Module &m, std::vector<std::vector<uint32_t>> &bufs,
          uint32_t gx, const std::vector<uint32_t> &push = {},
          Api api = Api::Vulkan)
{
    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(m, dev, api, &err);
    if (!kernel)
        panic("compile failed: %s", err.c_str());
    DispatchContext ctx;
    ctx.kernel = kernel.get();
    ctx.groups[0] = gx;
    for (size_t i = 0; i < bufs.size(); ++i)
        ctx.buffers.push_back({bufs[i].data(), bufs[i].size()});
    ctx.push = push.data();
    ctx.pushWords = static_cast<uint32_t>(push.size());
    ExecutionEngine engine(dev);
    return engine.dispatch(ctx);
}

float
asFloat(uint32_t bits)
{
    float f;
    static_assert(sizeof(f) == sizeof(bits));
    __builtin_memcpy(&f, &bits, sizeof(f));
    return f;
}

uint32_t
asBits(float f)
{
    uint32_t bits;
    __builtin_memcpy(&bits, &f, sizeof(f));
    return bits;
}

TEST(Interpreter, IntegerArithmetic)
{
    Builder b("int_ops", 1);
    b.bindStorage(0, ElemType::I32);
    auto x = b.constI(-15);
    auto y = b.constI(4);
    uint32_t slot = 0;
    auto store = [&](Builder::Reg r) {
        b.stBuf(0, b.constI(static_cast<int32_t>(slot++)), r);
    };
    store(b.iadd(x, y));  // -11
    store(b.isub(x, y));  // -19
    store(b.imul(x, y));  // -60
    store(b.idiv(x, y));  // -3 (truncated)
    store(b.irem(x, y));  // -3
    store(b.imin(x, y));  // -15
    store(b.imax(x, y));  // 4
    store(b.ineg(x));     // 15
    store(b.ishl(y, b.constI(2)));  // 16
    store(b.ishrs(x, b.constI(1))); // -8 (arithmetic)
    store(b.ishru(x, b.constI(1))); // 0x7ffffff8
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(16, 0)};
    runKernel(b.finish(), bufs, 1);
    auto v = [&](size_t i) { return static_cast<int32_t>(bufs[0][i]); };
    EXPECT_EQ(v(0), -11);
    EXPECT_EQ(v(1), -19);
    EXPECT_EQ(v(2), -60);
    EXPECT_EQ(v(3), -3);
    EXPECT_EQ(v(4), -3);
    EXPECT_EQ(v(5), -15);
    EXPECT_EQ(v(6), 4);
    EXPECT_EQ(v(7), 15);
    EXPECT_EQ(v(8), 16);
    EXPECT_EQ(v(9), -8);
    EXPECT_EQ(bufs[0][10], 0x7ffffff8u);
}

TEST(Interpreter, FloatArithmetic)
{
    Builder b("float_ops", 1);
    b.bindStorage(0, ElemType::F32);
    auto x = b.constF(2.25f);
    auto y = b.constF(-0.5f);
    uint32_t slot = 0;
    auto store = [&](Builder::Reg r) {
        b.stBuf(0, b.constI(static_cast<int32_t>(slot++)), r);
    };
    store(b.fadd(x, y));
    store(b.fmul(x, y));
    store(b.fdiv(x, y));
    store(b.fabs(y));
    store(b.fsqrt(x));
    store(b.ffma(x, y, x));
    store(b.ffloor(x));
    store(b.fmin(x, y));
    store(b.fmax(x, y));
    store(b.fexp(b.constF(1.0f)));
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(16, 0)};
    runKernel(b.finish(), bufs, 1);
    auto v = [&](size_t i) { return asFloat(bufs[0][i]); };
    EXPECT_FLOAT_EQ(v(0), 1.75f);
    EXPECT_FLOAT_EQ(v(1), -1.125f);
    EXPECT_FLOAT_EQ(v(2), -4.5f);
    EXPECT_FLOAT_EQ(v(3), 0.5f);
    EXPECT_FLOAT_EQ(v(4), 1.5f);
    EXPECT_FLOAT_EQ(v(5), std::fma(2.25f, -0.5f, 2.25f));
    EXPECT_FLOAT_EQ(v(6), 2.0f);
    EXPECT_FLOAT_EQ(v(7), -0.5f);
    EXPECT_FLOAT_EQ(v(8), 2.25f);
    EXPECT_FLOAT_EQ(v(9), std::exp(1.0f));
}

TEST(Interpreter, ComparisonsAndSelect)
{
    Builder b("cmp_ops", 1);
    b.bindStorage(0, ElemType::I32);
    auto two = b.constI(2);
    auto three = b.constI(3);
    auto big = b.constU(0x80000000u); // negative signed, large unsigned
    uint32_t slot = 0;
    auto store = [&](Builder::Reg r) {
        b.stBuf(0, b.constI(static_cast<int32_t>(slot++)), r);
    };
    store(b.ilt(two, three)); // 1
    store(b.ilt(big, two));   // 1 (signed)
    store(b.ult(big, two));   // 0 (unsigned)
    store(b.uge(big, two));   // 1
    store(b.flt(b.constF(1.0f), b.constF(2.0f))); // 1
    store(b.feq(b.constF(1.0f), b.constF(1.0f))); // 1
    store(b.select(b.constI(1), two, three));     // 2
    store(b.select(b.constI(0), two, three));     // 3
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(8, 7)};
    runKernel(b.finish(), bufs, 1);
    EXPECT_EQ(bufs[0][0], 1u);
    EXPECT_EQ(bufs[0][1], 1u);
    EXPECT_EQ(bufs[0][2], 0u);
    EXPECT_EQ(bufs[0][3], 1u);
    EXPECT_EQ(bufs[0][4], 1u);
    EXPECT_EQ(bufs[0][5], 1u);
    EXPECT_EQ(bufs[0][6], 2u);
    EXPECT_EQ(bufs[0][7], 3u);
}

TEST(Interpreter, BuiltinsAcrossWorkgroups)
{
    Builder b("builtins", 4);
    b.bindStorage(0, ElemType::I32);
    b.bindStorage(1, ElemType::I32);
    auto gid = b.globalIdX();
    b.stBuf(0, gid, b.localIdX());
    b.stBuf(1, gid, b.groupIdX());
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(12, 0), std::vector<uint32_t>(12, 0)};
    DispatchResult r = runKernel(b.finish(), bufs, 3);
    for (uint32_t i = 0; i < 12; ++i) {
        EXPECT_EQ(bufs[0][i], i % 4);
        EXPECT_EQ(bufs[1][i], i / 4);
    }
    EXPECT_EQ(r.stats.invocations, 12u);
}

TEST(Interpreter, LoopSumsRange)
{
    Builder b("loop", 1);
    b.bindStorage(0, ElemType::I32);
    b.setPushWords(1);
    auto n = b.ldPush(0);
    auto sum = b.constI(0);
    b.forRange(b.constI(0), n, b.constI(1),
               [&](Builder::Reg i) { b.iaddTo(sum, sum, i); });
    b.stBuf(0, b.constI(0), sum);
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(1, 0)};
    runKernel(b.finish(), bufs, 1, {100});
    EXPECT_EQ(bufs[0][0], 4950u);
}

TEST(Interpreter, WhileLoopWithBreakCondition)
{
    // Collatz steps for 27 = 111.
    Builder b("collatz", 1);
    b.bindStorage(0, ElemType::I32);
    auto v = b.constI(27);
    auto steps = b.constI(0);
    auto one = b.constI(1);
    auto two = b.constI(2);
    auto three = b.constI(3);
    b.whileLoop([&] { return b.igt(v, one); },
                [&] {
                    auto is_odd = b.irem(v, two);
                    auto odd_next = b.iadd(b.imul(v, three), one);
                    auto even_next = b.idiv(v, two);
                    b.movTo(v, b.select(is_odd, odd_next, even_next));
                    b.iaddTo(steps, steps, one);
                });
    b.stBuf(0, b.constI(0), steps);
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(1, 0)};
    runKernel(b.finish(), bufs, 1);
    EXPECT_EQ(bufs[0][0], 111u);
}

TEST(Interpreter, BarrierSharedReduction)
{
    // Classic tree reduction over 64 lanes in shared memory.
    Builder b("reduce", 64);
    b.bindStorage(0, ElemType::I32, true);
    b.bindStorage(1, ElemType::I32);
    b.setSharedWords(64);
    auto lid = b.localIdX();
    auto gid = b.globalIdX();
    b.stShared(lid, b.ldBuf(0, gid));
    b.barrier();
    for (uint32_t s = 32; s >= 1; s /= 2) {
        auto active = b.ilt(lid, b.constI(static_cast<int32_t>(s)));
        b.ifThen(active, [&] {
            auto other = b.iadd(lid, b.constI(static_cast<int32_t>(s)));
            b.stShared(lid, b.iadd(b.ldShared(lid), b.ldShared(other)));
        });
        b.barrier();
    }
    auto is_first = b.ieq(lid, b.constI(0));
    b.ifThen(is_first,
             [&] { b.stBuf(1, b.groupIdX(), b.ldShared(b.constI(0))); });

    std::vector<uint32_t> input(128);
    for (uint32_t i = 0; i < 128; ++i)
        input[i] = i + 1;
    std::vector<std::vector<uint32_t>> bufs = {
        input, std::vector<uint32_t>(2, 0)};
    DispatchResult r = runKernel(b.finish(), bufs, 2);
    EXPECT_EQ(bufs[1][0], 64u * 65u / 2u);             // 1..64
    EXPECT_EQ(bufs[1][1], 128u * 129u / 2u - 2080u);   // 65..128
    EXPECT_GT(r.stats.barriers, 0u);
    EXPECT_GT(r.stats.sharedAccesses, 0u);
}

TEST(Interpreter, AtomicsAddMinMax)
{
    Builder b("atomics", 32);
    b.bindStorage(0, ElemType::I32);
    auto gid = b.globalIdX();
    auto one = b.constI(1);
    auto zero = b.constI(0);
    b.atomIAdd(0, zero, one);
    b.atomIMax(0, one, gid);
    b.atomIMin(0, b.constI(2), gid);
    std::vector<std::vector<uint32_t>> bufs = {{0u, 0u, 0xffffu}};
    DispatchResult r = runKernel(b.finish(), bufs, 4); // 128 lanes
    EXPECT_EQ(bufs[0][0], 128u);
    EXPECT_EQ(bufs[0][1], 127u);
    EXPECT_EQ(bufs[0][2], 0u);
    EXPECT_EQ(r.stats.atomicOps, 3u * 128u);
}

TEST(Interpreter, OutOfBoundsTraps)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Builder b("oob", 1);
    b.bindStorage(0, ElemType::I32);
    b.stBuf(0, b.constI(100), b.constI(1));
    spirv::Module m = b.finish();
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(4, 0)};
    EXPECT_DEATH(runKernel(m, bufs, 1), "out of bounds");
}

TEST(Interpreter, RobustAccessClamps)
{
    Builder b("robust", 1);
    b.bindStorage(0, ElemType::I32);
    b.stBuf(0, b.constI(100), b.constI(42));
    spirv::Module m = b.finish();

    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(m, dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;
    std::vector<uint32_t> buf(4, 0);
    DispatchContext ctx;
    ctx.kernel = kernel.get();
    ctx.buffers.push_back({buf.data(), buf.size()});
    ctx.robustAccess = true;
    ExecutionEngine engine(dev);
    engine.dispatch(ctx);
    EXPECT_EQ(buf[3], 42u); // clamped to the last word
}

TEST(Interpreter, BarrierDivergenceTraps)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Builder b("diverge", 2);
    b.bindStorage(0, ElemType::I32);
    auto lid = b.localIdX();
    auto is_first = b.ieq(lid, b.constI(0));
    b.ifThen(is_first, [&] { b.barrier(); }); // only lane 0 arrives
    b.stBuf(0, lid, lid);
    spirv::Module m = b.finish();
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(4, 0)};
    EXPECT_DEATH(runKernel(m, bufs, 1), "barrier divergence");
}

TEST(Interpreter, DivisionByZeroTraps)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Builder b("div0", 1);
    b.bindStorage(0, ElemType::I32);
    b.stBuf(0, b.constI(0), b.idiv(b.constI(1), b.constI(0)));
    spirv::Module m = b.finish();
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(1, 0)};
    EXPECT_DEATH(runKernel(m, bufs, 1), "division by zero");
}

TEST(Interpreter, PushConstantsReachKernel)
{
    Builder b("push", 1);
    b.bindStorage(0, ElemType::I32);
    b.setPushWords(3);
    b.stBuf(0, b.constI(0), b.ldPush(0));
    b.stBuf(0, b.constI(1), b.ldPush(2));
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(2, 0)};
    runKernel(b.finish(), bufs, 1, {11, 22, 33});
    EXPECT_EQ(bufs[0][0], 11u);
    EXPECT_EQ(bufs[0][1], 33u);
}

TEST(Interpreter, FloatBitsRoundTripThroughBuffers)
{
    Builder b("bits", 1);
    b.bindStorage(0, ElemType::F32, true);
    b.bindStorage(1, ElemType::F32);
    b.stBuf(1, b.constI(0), b.fneg(b.ldBuf(0, b.constI(0))));
    std::vector<std::vector<uint32_t>> bufs = {{asBits(3.5f)}, {0u}};
    runKernel(b.finish(), bufs, 1);
    EXPECT_FLOAT_EQ(asFloat(bufs[1][0]), -3.5f);
}

// --- coalescing / stats ----------------------------------------------------

spirv::Module
stridedKernel()
{
    Builder b("stride_probe", 256);
    b.bindStorage(0, ElemType::F32, true);
    b.bindStorage(1, ElemType::F32);
    b.setPushWords(1);
    auto gid = b.globalIdX();
    auto idx = b.imul(gid, b.ldPush(0));
    auto guard = b.feq(b.ldBuf(0, idx), b.constF(1e30f));
    b.ifThen(guard, [&] { b.stBuf(1, b.constI(0), b.constF(0.0f)); });
    return b.finish();
}

double
transactionsFor(uint32_t stride)
{
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(256 * 32 * 4, 0),
        std::vector<uint32_t>(1, 0)};
    DispatchResult r = runKernel(stridedKernel(), bufs, 4, {stride});
    return r.stats.dramTransactions;
}

TEST(Coalescing, TransactionsScaleWithStride)
{
    double tx1 = transactionsFor(1);
    double tx4 = transactionsFor(4);
    double tx16 = transactionsFor(16);
    double tx32 = transactionsFor(32);
    // Unit stride: 32 lanes x 4 B = 2 lines of 64 B per warp.
    EXPECT_NEAR(tx1, 1024.0 * 2.0 / 32.0, 1.0);
    EXPECT_NEAR(tx4 / tx1, 4.0, 0.2);
    // At stride 16 (64 B) every lane owns a line; beyond that flat.
    EXPECT_NEAR(tx16 / tx1, 16.0, 0.5);
    EXPECT_NEAR(tx32 / tx16, 1.0, 0.05);
}

TEST(Coalescing, PromotionMovesTrafficOnChip)
{
    Builder b("promo", 256);
    b.bindStorage(0, ElemType::F32, true);
    b.bindStorage(1, ElemType::F32);
    auto gid = b.globalIdX();
    auto v = b.ldBuf(0, gid, spirv::MemFlagPromoteHint);
    b.stBuf(1, gid, v);
    spirv::Module m = b.finish();

    std::vector<std::vector<uint32_t>> cl_bufs = {
        std::vector<uint32_t>(512, 0), std::vector<uint32_t>(512, 0)};
    // OpenCL on the GTX honours the hint; Vulkan does not.
    DispatchResult cl = runKernel(m, cl_bufs, 2, {}, Api::OpenCl);
    std::vector<std::vector<uint32_t>> vk_bufs = {
        std::vector<uint32_t>(512, 0), std::vector<uint32_t>(512, 0)};
    DispatchResult vk = runKernel(m, vk_bufs, 2, {}, Api::Vulkan);

    EXPECT_EQ(cl.stats.promotedAccesses, 512u);
    EXPECT_EQ(vk.stats.promotedAccesses, 0u);
    EXPECT_GT(vk.stats.dramAccesses, cl.stats.dramAccesses);
}

TEST(Stats, LaneCyclesAndAccessesCounted)
{
    Builder b("stats", 64);
    b.bindStorage(0, ElemType::I32);
    auto gid = b.globalIdX();
    b.stBuf(0, gid, b.iadd(gid, gid));
    std::vector<std::vector<uint32_t>> bufs = {
        std::vector<uint32_t>(128, 0)};
    DispatchResult r = runKernel(b.finish(), bufs, 2);
    EXPECT_EQ(r.stats.invocations, 128u);
    EXPECT_EQ(r.stats.dramAccesses, 128u);
    EXPECT_GT(r.stats.laneCycles, 128u);
    EXPECT_GT(r.kernelNs, 0.0);
}

// --- micro-op lowering -----------------------------------------------------

/** A kernel exercising the integer fusion families: compare+branch
 *  (loop), address+load/store, mul+add indexing, shared staging. */
spirv::Module
fusionKernel()
{
    Builder b("fusion", 16);
    b.bindStorage(0, ElemType::I32, true);
    b.bindStorage(1, ElemType::I32);
    b.setSharedWords(32);
    auto lid = b.localIdX();
    auto base = b.imul(b.groupIdX(), b.constI(16));
    auto g = b.iadd(base, lid);
    b.stShared(b.iadd(lid, b.constI(16)), b.ldBuf(0, g));
    b.barrier();
    auto sum = b.constI(0);
    b.forRange(b.constI(0), b.constI(16), b.constI(1),
               [&](Builder::Reg i) {
                   auto v = b.ldShared(b.iadd(i, b.constI(16)));
                   b.iaddTo(sum, sum, v);
               });
    auto scaled = b.imul(sum, b.constI(3));
    b.stBuf(1, g, b.iadd(scaled, lid));
    return b.finish();
}

DispatchStats
runFusionKernel(const LowerOptions &opt, std::vector<uint32_t> &out,
                double *kernel_ns)
{
    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(fusionKernel(), dev, Api::Vulkan, &err);
    if (!kernel)
        panic("compile failed: %s", err.c_str());
    lowerKernel(*kernel, opt); // re-lower with the requested options

    std::vector<uint32_t> in(64);
    for (uint32_t i = 0; i < 64; ++i)
        in[i] = i * 7 + 1;
    out.assign(64, 0);
    DispatchContext ctx;
    ctx.kernel = kernel.get();
    ctx.groups[0] = 4;
    ctx.buffers.push_back({in.data(), in.size()});
    ctx.buffers.push_back({out.data(), out.size()});
    ExecutionEngine engine(dev);
    DispatchResult r = engine.dispatch(ctx);
    if (kernel_ns)
        *kernel_ns = r.kernelNs;
    return r.stats;
}

TEST(MicroOp, FusedExecutionMatchesUnfused)
{
    std::vector<uint32_t> fused_out, plain_out;
    double fused_ns = 0, plain_ns = 0;
    DispatchStats fused = runFusionKernel({}, fused_out, &fused_ns);
    DispatchStats plain =
        runFusionKernel(LowerOptions::noFusion(), plain_out, &plain_ns);

    EXPECT_EQ(fused_out, plain_out);
    EXPECT_EQ(fused.laneCycles, plain.laneCycles);
    EXPECT_EQ(fused.invocations, plain.invocations);
    EXPECT_EQ(fused.dramAccesses, plain.dramAccesses);
    EXPECT_EQ(fused.sharedAccesses, plain.sharedAccesses);
    EXPECT_EQ(fused.barriers, plain.barriers);
    EXPECT_EQ(fused.dramTransactions, plain.dramTransactions);
    EXPECT_EQ(fused_ns, plain_ns);
}

TEST(MicroOp, LoweringActuallyFuses)
{
    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(fusionKernel(), dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;
    EXPECT_GT(kernel->micro->fusedPairs, 0u);
    EXPECT_LT(kernel->micro->ops.size(), kernel->insns.size());

    lowerKernel(*kernel, LowerOptions::noFusion());
    EXPECT_EQ(kernel->micro->fusedPairs, 0u);
}

/** Every micro-op the registry kernels lower to, fused or not, renders
 *  with symbolic operands (not the generic "<name> a=… b=…" fallback),
 *  and float compares carry no signed-integer "s" suffix. */
TEST(MicroOp, DisassemblyRendersEveryRegistryOp)
{
    const DeviceSpec &dev = gtx1050ti();
    uint32_t float_compares = 0;
    for (const auto &[name, build] : kernels::kernelRegistry()) {
        std::string err;
        auto kernel = compileKernel(build(), dev, Api::Vulkan, &err);
        ASSERT_NE(kernel, nullptr) << name << ": " << err;
        for (const LowerOptions &opt :
             {LowerOptions{}, LowerOptions{.fuseSuperops = false},
              LowerOptions::noFusion()}) {
            lowerKernel(*kernel, opt);
            const MicroKernel &mk = *kernel->micro;
            MicroKernel tmpl;
            tmpl.ops = mk.templateOps;
            const MicroKernel *const streams[] = {&mk, &tmpl};
            for (const MicroKernel *stream : streams) {
                for (uint32_t pc = 0; pc < stream->ops.size(); ++pc) {
                    const MicroOp &o = stream->ops[pc];
                    const std::string text = renderMicroOp(*stream, pc);
                    EXPECT_EQ(text.find(" a="), std::string::npos)
                        << name << " @" << pc << ": " << text;
                    if (o.op < MOp::FEq || o.op > MOp::FGe)
                        continue;
                    static const char *const sym[] = {"==", "!=", "<",
                                                      "<=", ">",  ">="};
                    const std::string want =
                        "r" + std::to_string(o.a) + " = r" +
                        std::to_string(o.b) + " " +
                        sym[static_cast<int>(o.op) -
                            static_cast<int>(MOp::FEq)] +
                        " r" + std::to_string(o.c);
                    EXPECT_EQ(text, want) << name << " @" << pc;
                    ++float_compares;
                }
            }
        }
    }
    EXPECT_GT(float_compares, 0u);
}

/** SuperLoop recognition still fires on the registry: equivalence
 *  tests alone would pass if the matcher never matched, since both
 *  sides would then run the plain stream.  kmeans_assign's
 *  squared-distance loop and lud_internal's shared dot-product loop
 *  each fuse into one SuperLoop; no other kernel forms one, and none
 *  forms with superops off. */
TEST(MicroOp, RegistrySuperLoops)
{
    const DeviceSpec &dev = gtx1050ti();
    const std::map<std::string, SuperKind> want = {
        {"kmeans_assign", SuperKind::SqDistStep},
        {"lud_internal", SuperKind::ShDotStep}};
    for (const LowerOptions &opt :
         {LowerOptions{}, LowerOptions{.fuseSuperops = false}}) {
        size_t total = 0;
        for (const auto &[name, build] : kernels::kernelRegistry()) {
            std::string err;
            auto kernel = compileKernel(build(), dev, Api::Vulkan, &err);
            ASSERT_NE(kernel, nullptr) << name << ": " << err;
            lowerKernel(*kernel, opt);
            const MicroKernel &mk = *kernel->micro;
            size_t loops = 0;
            for (const MicroOp &o : mk.ops)
                loops += o.op == MOp::SuperLoop;
            EXPECT_EQ(loops, mk.supers.size()) << name;
            total += loops;
            const auto it = want.find(name);
            if (!opt.fuseSuperops || it == want.end()) {
                EXPECT_EQ(loops, 0u) << name;
                continue;
            }
            ASSERT_EQ(loops, 1u) << name;
            EXPECT_EQ(mk.supers[0].kind, it->second) << name;
        }
        EXPECT_EQ(total, opt.fuseSuperops ? 2u : 0u);
    }
}

TEST(MicroOp, RobustPathMatchesFastPath)
{
    // robustAccess forces the instrumented lane-major executor for
    // every workgroup; an in-bounds kernel must produce identical
    // results either way (op-major lockstep vs lane-major order).  All
    // four workgroups are sampled: without robust access they still
    // run on the kernel's own tier.
    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(fusionKernel(), dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;

    std::vector<uint32_t> in(64);
    for (uint32_t i = 0; i < 64; ++i)
        in[i] = i * 3 + 2;
    std::vector<uint32_t> out_fast(64, 0), out_robust(64, 0);
    for (bool robust : {false, true}) {
        std::vector<uint32_t> in_copy = in;
        DispatchContext ctx;
        ctx.kernel = kernel.get();
        ctx.groups[0] = 4;
        ctx.buffers.push_back({in_copy.data(), in_copy.size()});
        std::vector<uint32_t> &out = robust ? out_robust : out_fast;
        ctx.buffers.push_back({out.data(), out.size()});
        ctx.robustAccess = robust;
        ExecutionEngine engine(dev);
        const uint64_t instrumented =
            tierWorkgroupCount(ExecTier::Instrumented);
        engine.dispatch(ctx);
        EXPECT_EQ(tierWorkgroupCount(ExecTier::Instrumented) -
                      instrumented,
                  robust ? 4u : 0u)
            << (robust ? "robust" : "plain") << " dispatch";
    }
    EXPECT_EQ(out_fast, out_robust);
}

TEST(MicroOp, AtomicMinMaxIntLimits)
{
    // CAS-loop edge cases around the INT32 extremes: the loop must
    // terminate and return the pre-op value in all of them.
    Builder b("atom_limits", 1);
    b.bindStorage(0, ElemType::I32);
    b.bindStorage(1, ElemType::I32);
    auto i0 = b.constI(0);
    auto i1 = b.constI(1);
    auto i2 = b.constI(2);
    auto int_min = b.constU(0x80000000u);
    auto int_max = b.constU(0x7fffffffu);
    // word0 = INT32_MAX: min with INT32_MIN stores INT32_MIN.
    b.stBuf(1, i0, b.atomIMin(0, i0, int_min));
    // word1 = INT32_MIN: max with INT32_MAX stores INT32_MAX.
    b.stBuf(1, i1, b.atomIMax(0, i1, int_max));
    // word2 = 5: min with INT32_MAX is a no-op (early CAS exit).
    b.stBuf(1, i2, b.atomIMin(0, i2, int_max));

    std::vector<std::vector<uint32_t>> bufs = {
        {0x7fffffffu, 0x80000000u, 5u}, std::vector<uint32_t>(3, 99u)};
    DispatchResult r = runKernel(b.finish(), bufs, 1);
    EXPECT_EQ(bufs[0][0], 0x80000000u);
    EXPECT_EQ(bufs[0][1], 0x7fffffffu);
    EXPECT_EQ(bufs[0][2], 5u);
    EXPECT_EQ(bufs[1][0], 0x7fffffffu); // old values
    EXPECT_EQ(bufs[1][1], 0x80000000u);
    EXPECT_EQ(bufs[1][2], 5u);
    EXPECT_EQ(r.stats.atomicOps, 3u);
}

TEST(MicroOp, NeverWrittenRegisterReadsZero)
{
    // A register that is never written must still read as 0 (the
    // pre-lowering zero-init semantics): definite assignment fails, so
    // the register zero-fill must be retained.
    Builder b("unwritten", 4);
    b.bindStorage(0, ElemType::I32);
    auto ghost = b.newReg();
    b.stBuf(0, b.localIdX(), b.iadd(ghost, ghost));
    spirv::Module m = b.finish();

    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(m, dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;
    EXPECT_FALSE(kernel->micro->skipRegZeroInit);

    std::vector<uint32_t> out(4, 0xdeadbeefu);
    DispatchContext ctx;
    ctx.kernel = kernel.get();
    ctx.buffers.push_back({out.data(), out.size()});
    ExecutionEngine engine(dev);
    engine.dispatch(ctx);
    for (uint32_t v : out)
        EXPECT_EQ(v, 0u);
}

TEST(MicroOp, ConditionallyWrittenRegisterReadsZeroEveryWorkgroup)
{
    // Only workgroup 0 writes the register; later workgroups reuse the
    // same interpreter, so they must observe the zero-init — a
    // wrongly-skipped zero-fill would leak 42 from workgroup 0 into
    // every following workgroup here.
    Builder b("cond_write", 4);
    b.bindStorage(0, ElemType::I32);
    auto v = b.newReg();
    b.ifThen(b.ieq(b.groupIdX(), b.constI(0)),
             [&] { b.constITo(v, 42); });
    b.stBuf(0, b.globalIdX(), v);
    spirv::Module m = b.finish();

    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(m, dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;
    EXPECT_FALSE(kernel->micro->skipRegZeroInit);

    std::vector<uint32_t> out(32, 7u);
    DispatchContext ctx;
    ctx.kernel = kernel.get();
    ctx.groups[0] = 8;
    ctx.buffers.push_back({out.data(), out.size()});
    ExecutionEngine engine(dev);
    engine.dispatch(ctx);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], i < 4 ? 42u : 0u) << i;
}

TEST(MicroOp, WriteBeforeReadKernelsSkipZeroFill)
{
    const DeviceSpec &dev = gtx1050ti();
    Builder b("wbr", 64);
    b.bindStorage(0, ElemType::I32);
    auto gid = b.globalIdX();
    b.stBuf(0, gid, b.iadd(gid, gid));
    std::string err;
    auto kernel = compileKernel(b.finish(), dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;
    EXPECT_TRUE(kernel->micro->skipRegZeroInit);
}

// ---------------------------------------------------------------------------
// Compile-cache regression: a cache hit must reproduce the uncached
// compile bit-for-bit — same lowered program, same simulated times —
// for every kernel in the library, and near-identical devices must
// never alias each other's cache entries.
// ---------------------------------------------------------------------------

/** Save/restore the process-global cache switch around a test. */
class CompileCacheGuard
{
  public:
    CompileCacheGuard() : wasEnabled(CompileCache::globalEnabled()) {}
    ~CompileCacheGuard()
    {
        CompileCache::global().clear();
        CompileCache::setGlobalEnabled(wasEnabled ? 1 : 0);
    }

  private:
    bool wasEnabled;
};

/** Field-wise bit-identity of two compiled kernels. */
void
expectIdenticalCompiles(const CompiledKernel &a, const CompiledKernel &b,
                        const std::string &what)
{
    EXPECT_EQ(a.api, b.api) << what;
    EXPECT_EQ(a.promoted, b.promoted) << what;
    EXPECT_EQ(a.codeQualityEff, b.codeQualityEff) << what;
    EXPECT_EQ(a.compileNs, b.compileNs) << what;
    EXPECT_EQ(a.insns.size(), b.insns.size()) << what;
    EXPECT_EQ(a.siteOfInsn, b.siteOfInsn) << what;
    EXPECT_EQ(a.numSites, b.numSites) << what;
    EXPECT_EQ(a.sitePromote, b.sitePromote) << what;

    const MicroKernel &ma = *a.micro, &mb = *b.micro;
    ASSERT_EQ(ma.ops.size(), mb.ops.size()) << what;
    if (!ma.ops.empty()) {
        EXPECT_EQ(std::memcmp(ma.ops.data(), mb.ops.data(),
                              ma.ops.size() * sizeof(MicroOp)),
                  0)
            << what;
    }
    ASSERT_EQ(ma.templateOps.size(), mb.templateOps.size()) << what;
    if (!ma.templateOps.empty()) {
        EXPECT_EQ(std::memcmp(ma.templateOps.data(),
                              mb.templateOps.data(),
                              ma.templateOps.size() * sizeof(MicroOp)),
                  0)
            << what;
    }
    ASSERT_EQ(ma.supers.size(), mb.supers.size()) << what;
    if (!ma.supers.empty()) {
        EXPECT_EQ(std::memcmp(ma.supers.data(), mb.supers.data(),
                              ma.supers.size() * sizeof(SuperOp)),
                  0)
            << what;
    }
    EXPECT_EQ(ma.templateDsts, mb.templateDsts) << what;
    EXPECT_EQ(ma.costFrom, mb.costFrom) << what;
    EXPECT_EQ(ma.hoistedCost, mb.hoistedCost) << what;
    EXPECT_EQ(ma.skipRegZeroInit, mb.skipRegZeroInit) << what;
    EXPECT_EQ(ma.hasBranches, mb.hasBranches) << what;
    EXPECT_EQ(ma.hasAtomics, mb.hasAtomics) << what;
    EXPECT_EQ(ma.fusedPairs, mb.fusedPairs) << what;
}

TEST(CompileCacheRegression, HitsBitIdenticalAcrossKernelRegistry)
{
    CompileCacheGuard guard;
    const DeviceSpec &dev = gtx1050ti();

    for (const auto &[name, build] : kernels::kernelRegistry()) {
        spirv::Module m = build();
        for (Api api : {Api::Vulkan, Api::OpenCl, Api::Cuda}) {
            // Ground truth with the cache off.
            CompileCache::setGlobalEnabled(0);
            std::string err;
            auto uncached = compileKernel(m, dev, api, &err);
            ASSERT_NE(uncached, nullptr) << name << ": " << err;

            // Cold compile (miss + insert), then warm compile (hit).
            CompileCache::setGlobalEnabled(1);
            CompileCache::global().clear();
            auto cold = compileKernel(m, dev, api, &err);
            ASSERT_NE(cold, nullptr) << name << ": " << err;
            auto warm = compileKernel(m, dev, api, &err);
            ASSERT_NE(warm, nullptr) << name << ": " << err;
            EXPECT_EQ(CompileCache::global().stats().hits, 1u) << name;

            std::string what =
                name + "/" + std::to_string(static_cast<int>(api));
            expectIdenticalCompiles(*uncached, *cold, what + " cold");
            expectIdenticalCompiles(*uncached, *warm, what + " warm");
        }
    }
}

TEST(CompileCacheRegression, WarmHitDispatchesBitIdentically)
{
    CompileCacheGuard guard;
    const DeviceSpec &dev = gtx1050ti();
    spirv::Module m = kernels::buildVecAdd();
    constexpr uint32_t n = 512, groups = 2;

    auto runOnce = [&](bool useCache) {
        CompileCache::setGlobalEnabled(useCache ? 1 : 0);
        std::string err;
        auto kernel = compileKernel(m, dev, Api::Vulkan, &err);
        if (!kernel)
            panic("compile failed: %s", err.c_str());
        std::vector<std::vector<uint32_t>> bufs(3);
        for (uint32_t i = 0; i < n; ++i) {
            bufs[0].push_back(asBits(0.5f * (float)i));
            bufs[1].push_back(asBits(2.0f));
        }
        bufs[2].assign(n, 0);
        DispatchContext ctx;
        ctx.kernel = kernel.get();
        ctx.groups[0] = groups;
        for (auto &buf : bufs)
            ctx.buffers.push_back({buf.data(), buf.size()});
        std::vector<uint32_t> push{n};
        ctx.push = push.data();
        ctx.pushWords = 1;
        ExecutionEngine engine(dev);
        DispatchResult r = engine.dispatch(ctx);
        return std::make_tuple(bufs[2], r.kernelNs, r.stats);
    };

    auto baseline = runOnce(false);
    CompileCache::global().clear();
    auto cold = runOnce(true); // populates the cache
    auto warm = runOnce(true); // served from the cache
    ASSERT_GE(CompileCache::global().stats().hits, 1u);

    EXPECT_EQ(std::get<0>(cold), std::get<0>(baseline));
    EXPECT_EQ(std::get<0>(warm), std::get<0>(baseline));
    EXPECT_EQ(std::get<1>(cold), std::get<1>(baseline));
    EXPECT_EQ(std::get<1>(warm), std::get<1>(baseline));
    EXPECT_TRUE(std::get<2>(cold) == std::get<2>(baseline));
    EXPECT_TRUE(std::get<2>(warm) == std::get<2>(baseline));
}

TEST(CompileCacheRegression, NearIdenticalDevicesDoNotAlias)
{
    CompileCacheGuard guard;
    CompileCache::setGlobalEnabled(1);
    CompileCache::global().clear();

    // Two devices differing ONLY in one driver-profile scalar.
    const DeviceSpec &dev = gtx1050ti();
    DeviceSpec tweaked = dev;
    tweaked.apis[static_cast<int>(Api::Vulkan)].codeQuality = 0.5;

    spirv::Module m = kernels::buildVecAdd();
    EXPECT_NE(makeCompileCacheKey(m, dev, Api::Vulkan),
              makeCompileCacheKey(m, tweaked, Api::Vulkan));

    std::string err;
    auto base = compileKernel(m, dev, Api::Vulkan, &err);
    ASSERT_NE(base, nullptr) << err;
    auto base2 = compileKernel(m, dev, Api::Vulkan, &err);
    ASSERT_NE(base2, nullptr) << err;
    EXPECT_EQ(CompileCache::global().stats().hits, 1u);

    // The tweaked device must MISS (fresh compile with its own
    // profile), not pick up the cached gtx1050ti artefact.
    auto other = compileKernel(m, tweaked, Api::Vulkan, &err);
    ASSERT_NE(other, nullptr) << err;
    EXPECT_EQ(CompileCache::global().stats().hits, 1u);
    EXPECT_EQ(CompileCache::global().stats().entries, 2u);
    EXPECT_EQ(other->codeQualityEff, 0.5);
    EXPECT_NE(other->codeQualityEff, base->codeQualityEff);

    // Same API, different entry per API too.
    auto cl = compileKernel(m, dev, Api::OpenCl, &err);
    ASSERT_NE(cl, nullptr) << err;
    EXPECT_EQ(CompileCache::global().stats().entries, 3u);
}

} // namespace
} // namespace vcb::sim
