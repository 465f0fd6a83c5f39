/** @file Property test: random straight-line kernels executed by the
 *  interpreter must match a host-side oracle that applies the same
 *  operation semantics to the same register history — bit-exactly,
 *  including float edge cases (inf, denormals, NaN propagation), both
 *  for one-lane constant programs (the register template) and for
 *  lane-varying ones under every executor tier. */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "serve/serve.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "sim/uvm.h"
#include "spirv/builder.h"

namespace vcb::sim {
namespace {

using spirv::Builder;
using spirv::ElemType;

float
f(uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

uint32_t
u(float v)
{
    return std::bit_cast<uint32_t>(v);
}

int32_t
s(uint32_t bits)
{
    return static_cast<int32_t>(bits);
}

/** Which results a later op may consume (see runTrial). */
enum class Keep
{
    Always,
    UnlessNan,
    UnlessNanOrZero,
};

/** One random-program op: the builder call and the host oracle, on
 *  operand registers / words a, c, d.  kOracleOps holds one per pure
 *  op of the interpreter's op list. */
struct OracleOp
{
    Builder::Reg (*emit)(Builder &, Builder::Reg, Builder::Reg,
                         Builder::Reg);
    uint32_t (*host)(uint32_t, uint32_t, uint32_t);
    Keep keep;
};

using R = Builder::Reg;
const OracleOp kOracleOps[] = {
    {[](Builder &b, R a, R c, R) { return b.fadd(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return u(f(a) + f(c)); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.fsub(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return u(f(a) - f(c)); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.fmul(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return u(f(a) * f(c)); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.fdiv(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return u(f(a) / f(c)); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.fmin(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return u(std::fmin(f(a), f(c)));
     },
     Keep::UnlessNanOrZero},
    {[](Builder &b, R a, R c, R) { return b.fmax(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return u(std::fmax(f(a), f(c)));
     },
     Keep::UnlessNanOrZero},
    {[](Builder &b, R a, R, R) { return b.fabs(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::fabs(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R, R) { return b.fsqrt(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::sqrt(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R d) { return b.ffma(a, c, d); },
     [](uint32_t a, uint32_t c, uint32_t d) {
         return u(std::fma(f(a), f(c), f(d)));
     },
     Keep::UnlessNan},
    {[](Builder &b, R a, R, R) { return b.ffloor(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::floor(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.iadd(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a + c; }, Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.isub(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a - c; }, Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.imul(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a * c; }, Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.iand(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a & c; }, Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ixor(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a ^ c; }, Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ishl(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a << (c & 31); },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ishru(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a >> (c & 31); },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ilt(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return s(a) < s(c) ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R d) { return b.select(a, c, d); },
     [](uint32_t a, uint32_t c, uint32_t d) { return a ? c : d; },
     Keep::Always},
    {[](Builder &b, R a, R, R) { return b.cvtSF(a); },
     [](uint32_t a, uint32_t, uint32_t) {
         return u(static_cast<float>(s(a)));
     },
     Keep::Always},
    {[](Builder &b, R a, R, R) { return b.cvtFS(a); },
     [](uint32_t a, uint32_t, uint32_t) {
         // NaN, infinities and values outside [-2^31, 2^31) give
         // INT_MIN; the rest truncate toward zero.
         const float v = f(a);
         return v >= -2147483648.0f && v < 2147483648.0f
                    ? static_cast<uint32_t>(static_cast<int32_t>(v))
                    : 0x80000000u;
     },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.imin(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return s(a) < s(c) ? a : c; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.imax(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return s(a) > s(c) ? a : c; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ishrs(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return static_cast<uint32_t>(s(a) >> (c & 31));
     },
     Keep::Always},
    {[](Builder &b, R a, R, R) { return b.inot(a); },
     [](uint32_t a, uint32_t, uint32_t) { return ~a; }, Keep::Always},
    {[](Builder &b, R a, R, R) { return b.ineg(a); },
     [](uint32_t a, uint32_t, uint32_t) { return 0u - a; }, Keep::Always},
    {[](Builder &b, R a, R, R) { return b.fneg(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(-f(a)); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.ult(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a < c ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.flt(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return f(a) < f(c) ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.feq(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return f(a) == f(c) ? 1u : 0u;
     },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ior(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a | c; }, Keep::Always},
    {[](Builder &b, R a, R, R) { return b.fexp(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::exp(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R, R) { return b.flog(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::log(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R, R) { return b.fsin(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::sin(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R, R) { return b.fcos(a); },
     [](uint32_t a, uint32_t, uint32_t) { return u(std::cos(f(a))); },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.fpow(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return u(std::pow(f(a), f(c)));
     },
     Keep::UnlessNan},
    {[](Builder &b, R a, R c, R) { return b.ieq(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a == c ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ine(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a != c ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ile(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return s(a) <= s(c) ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.igt(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return s(a) > s(c) ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.ige(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return s(a) >= s(c) ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.uge(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return a >= c ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.fne(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return f(a) != f(c) ? 1u : 0u;
     },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.fle(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return f(a) <= f(c) ? 1u : 0u;
     },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.fgt(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) { return f(a) > f(c) ? 1u : 0u; },
     Keep::Always},
    {[](Builder &b, R a, R c, R) { return b.fge(a, c); },
     [](uint32_t a, uint32_t c, uint32_t) {
         return f(a) >= f(c) ? 1u : 0u;
     },
     Keep::Always},
};
#define VCB_COUNT_OP(name, expr) +1
static_assert(std::size(kOracleOps) ==
                  0 VCB_PURE_OPS(VCB_COUNT_OP, VCB_COUNT_OP, VCB_COUNT_OP),
              "one oracle op per pure op of microop.h's op list");
#undef VCB_COUNT_OP

/**
 * One random program: builder ops mirrored by host evaluation.  The
 * constant form runs one lane from immediate seeds, so the lowering
 * hoists almost all of it into the register template; the lane-varying
 * form loads different seeds per lane from a buffer, so every op runs
 * on an executor, and it runs under every forced tier.
 */
void
runTrial(uint64_t seed, bool varying)
{
    constexpr uint32_t kVaryingLanes = 12;
    const uint32_t lanes = varying ? kVaryingLanes : 1;
    Rng rng(seed);
    Builder b("prop", lanes);
    b.bindStorage(0, ElemType::U32);
    if (varying)
        b.bindStorage(1, ElemType::U32, true);

    std::vector<Builder::Reg> regs;
    std::vector<std::vector<uint32_t>> host; // per register, per lane
    std::vector<int> kinds;
    int current_kind = -1;

    auto push = [&](Builder::Reg r, std::vector<uint32_t> values) {
        regs.push_back(r);
        host.push_back(std::move(values));
        kinds.push_back(current_kind);
    };

    // Seed values: mixed magnitudes, a negative, a denormal-ish bit
    // pattern and a plain integer.  The lane-varying form reads row
    // k + 1 of its input at gid + (k + 1) * lanes, stepping by a
    // loaded row 0 (= lanes) instead of a constant, so that no seed
    // address is dispatch-uniform.
    std::vector<uint32_t> input(lanes, lanes); // row 0
    std::vector<std::vector<uint32_t>> seeds(4,
                                             std::vector<uint32_t>(lanes));
    for (uint32_t l = 0; l < lanes; ++l) {
        seeds[0][l] = u(rng.nextFloat(-100.0f, 100.0f));
        seeds[1][l] = u(rng.nextFloat(0.001f, 8.0f));
        seeds[2][l] = static_cast<uint32_t>(
            static_cast<int32_t>(rng.nextRange(-1000, 1000)));
        seeds[3][l] = static_cast<uint32_t>(rng.next());
    }
    Builder::Reg step{}, addr{};
    if (varying) {
        addr = b.globalIdX();
        step = b.ldBuf(1, addr);
    }
    for (size_t k = 0; k < seeds.size(); ++k) {
        if (varying) {
            addr = b.iadd(addr, step);
            push(b.ldBuf(1, addr), seeds[k]);
            input.insert(input.end(), seeds[k].begin(), seeds[k].end());
        } else if (k == 2) {
            push(b.constI(s(seeds[k][0])), seeds[k]);
        } else if (k == 3) {
            push(b.constU(seeds[k][0]), seeds[k]);
        } else {
            push(b.constF(f(seeds[k][0])), seeds[k]);
        }
    }

    auto pick = [&]() -> size_t { return rng.nextBelow(regs.size()); };

    for (int op = 0; op < 60; ++op) {
        size_t ia = pick(), ib = pick(), ic = pick();
        const uint64_t choice = rng.nextBelow(std::size(kOracleOps));
        const OracleOp &o = kOracleOps[choice];
        current_kind = static_cast<int>(choice);
        std::vector<uint32_t> values(lanes);
        bool keep = true;
        for (uint32_t l = 0; l < lanes; ++l) {
            values[l] = o.host(host[ia][l], host[ib][l], host[ic][l]);
            // NaN payload bits may differ between the interpreter's and
            // this file's translation units (inlined SSE vs libm code
            // paths), and integer ops would then diverge on those bits
            // — so an op that gives NaN in any lane is terminal:
            // emitted but never consumed downstream.  fmin/fmax of
            // (+0, -0) may return either zero (IEEE 754 allows both,
            // and translation units lower the call differently), so
            // their zero results are terminal too.
            if (o.keep != Keep::Always && std::isnan(f(values[l])))
                keep = false;
            if (o.keep == Keep::UnlessNanOrZero && (values[l] << 1) == 0)
                keep = false;
        }
        const Builder::Reg r = o.emit(b, regs[ia], regs[ib], regs[ic]);
        if (keep)
            push(r, std::move(values));
    }

    // Store every register: to word i in the constant form, to row i
    // (word i * lanes + gid) in the lane-varying form.
    Builder::Reg out = varying ? b.globalIdX() : Builder::Reg{};
    for (size_t i = 0; i < regs.size(); ++i) {
        if (!varying)
            out = b.constI(static_cast<int32_t>(i));
        else if (i > 0)
            out = b.iadd(out, step);
        b.stBuf(0, out, regs[i]);
    }
    spirv::Module m = b.finish();

    const DeviceSpec &dev = gtx1050ti();
    std::string err;
    auto kernel = compileKernel(m, dev, Api::Vulkan, &err);
    ASSERT_NE(kernel, nullptr) << err;
    if (varying)
        ASSERT_EQ(kernel->micro->templateOps.size(), 0u) << "trial " << seed;
    else
        ASSERT_GT(kernel->micro->templateOps.size(), 0u) << "trial " << seed;

    const ExecTier auto_tier[] = {ExecTier::Count};
    const ExecTier all_tiers[] = {ExecTier::Trace, ExecTier::Block,
                                  ExecTier::LaneMajor,
                                  ExecTier::Instrumented};
    for (ExecTier tier : varying ? std::span<const ExecTier>(all_tiers)
                                 : std::span<const ExecTier>(auto_tier)) {
        std::vector<uint32_t> buf(regs.size() * lanes, 0);
        DispatchContext ctx;
        ctx.kernel = kernel.get();
        ctx.buffers.push_back({buf.data(), buf.size()});
        ctx.buffers.push_back({input.data(), input.size()});
        setExecutorOverride(tier);
        ExecutionEngine engine(dev);
        engine.dispatch(ctx);
        setExecutorOverride(ExecTier::Count);

        for (size_t i = 0; i < regs.size(); ++i) {
            for (uint32_t l = 0; l < lanes; ++l) {
                // NaN payloads may legitimately differ between libm
                // calls that both return NaN; everything else must
                // match bit-exactly.
                const uint32_t got = buf[i * lanes + l];
                if (std::isnan(f(got)) && std::isnan(f(host[i][l])))
                    continue;
                ASSERT_EQ(got, host[i][l])
                    << "trial " << seed << " reg " << i << " lane " << l
                    << " kind " << kinds[i] << " tier "
                    << execTierName(tier);
            }
        }
    }
}

class InterpreterOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(InterpreterOracle, RandomProgramMatchesHostEvaluation)
{
    // Each parameter seeds 8 random programs.
    for (int sub = 0; sub < 8; ++sub)
        runTrial(static_cast<uint64_t>(GetParam()) * 8 + sub, false);
}

/** The lane-varying form: the same host oracle checks the executors'
 *  copies of the op list, not only the template evaluator's. */
TEST_P(InterpreterOracle, LaneVaryingProgramMatchesOnEveryTier)
{
    for (int sub = 0; sub < 8; ++sub)
        runTrial(static_cast<uint64_t>(GetParam()) * 8 + sub, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterOracle,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Property: any builder-authored kernel — including randomized control
// flow, bindings, push constants and shared memory — must validate,
// survive a binary round trip bit-exactly, and disassemble.
// ---------------------------------------------------------------------------

/** Build a random but well-formed kernel (straight-line arithmetic
 *  interleaved with nested structured control flow). */
spirv::Module
buildRandomKernel(uint64_t seed)
{
    Rng rng(seed);
    uint32_t local = 1u << rng.nextBelow(9); // 1..256 lanes
    Builder b("rand_" + std::to_string(seed), local);

    uint32_t num_bindings = 1 + (uint32_t)rng.nextBelow(4);
    for (uint32_t i = 0; i < num_bindings; ++i)
        b.bindStorage(i,
                      rng.nextBelow(2) ? ElemType::F32 : ElemType::I32,
                      /*read_only=*/i > 0 && rng.nextBelow(2));
    uint32_t push_words = (uint32_t)rng.nextBelow(5);
    b.setPushWords(push_words);
    bool shared = rng.nextBelow(2) != 0;
    if (shared)
        b.setSharedWords(16 + (uint32_t)rng.nextBelow(48));

    std::vector<Builder::Reg> vals = {b.constI(1), b.constF(2.5f),
                                      b.globalIdX()};
    if (push_words > 0)
        vals.push_back(b.ldPush((uint32_t)rng.nextBelow(push_words)));
    auto any = [&]() { return vals[rng.nextBelow(vals.size())]; };

    for (int op = 0; op < 24; ++op) {
        switch (rng.nextBelow(8)) {
          case 0:
            vals.push_back(b.iadd(any(), any()));
            break;
          case 1:
            vals.push_back(b.fmul(any(), any()));
            break;
          case 2:
            vals.push_back(b.select(b.ilt(any(), any()), any(), any()));
            break;
          case 3:
            b.ifThen(b.ieq(any(), any()),
                     [&] { vals.push_back(b.isub(any(), any())); });
            break;
          case 4: {
            auto begin = b.constI(0);
            auto end = b.constI(1 + (int32_t)rng.nextBelow(4));
            auto step = b.constI(1);
            b.forRange(begin, end, step, [&](Builder::Reg i) {
                vals.push_back(b.iadd(i, any()));
            });
            break;
          }
          case 5:
            if (shared) {
                auto addr = b.constI((int32_t)rng.nextBelow(16));
                b.stShared(addr, any());
                vals.push_back(b.ldShared(addr));
            } else {
                vals.push_back(b.ixor(any(), any()));
            }
            break;
          case 6:
            b.ifThenElse(
                b.ine(any(), any()),
                [&] { vals.push_back(b.imax(any(), any())); },
                [&] { vals.push_back(b.imin(any(), any())); });
            break;
          default:
            vals.push_back(b.cvtSF(any()));
            break;
        }
    }
    // A guarded store so every kernel touches binding 0 in-bounds.
    auto zero = b.constI(0);
    b.ifThen(b.ieq(b.globalIdX(), zero),
             [&] { b.stBuf(0, zero, any()); });
    return b.finish();
}

class BuilderRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(BuilderRoundTrip, RandomKernelValidatesRoundTripsDisassembles)
{
    for (int sub = 0; sub < 4; ++sub) {
        uint64_t seed = static_cast<uint64_t>(GetParam()) * 4 + sub;
        spirv::Module m = buildRandomKernel(seed);

        std::string err;
        ASSERT_TRUE(spirv::validate(m, &err))
            << "seed " << seed << ": " << err;

        std::vector<uint32_t> bin = m.serialize();
        spirv::Module back = spirv::Module::deserialize(bin);
        EXPECT_EQ(back.name, m.name) << seed;
        EXPECT_EQ(back.code, m.code) << seed;
        EXPECT_EQ(back.pushWords, m.pushWords) << seed;
        EXPECT_EQ(back.sharedWords, m.sharedWords) << seed;
        EXPECT_EQ(back.bindings.size(), m.bindings.size()) << seed;
        EXPECT_EQ(back.serialize(), bin) << seed;
        ASSERT_TRUE(spirv::validate(back, &err))
            << "seed " << seed << ": " << err;

        std::string text = spirv::disassemble(back);
        EXPECT_NE(text.find(m.name), std::string::npos) << seed;
        EXPECT_NE(text.find("Ret"), std::string::npos) << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderRoundTrip,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Property: ThreadPool::parallelFor runs every index exactly once, for
// any (count, worker) combination, and exceptions escaping a work item
// are a panic (simulator work items must not throw).
// ---------------------------------------------------------------------------

TEST(ThreadPoolProperty, EveryIndexRunsExactlyOnce)
{
    for (unsigned workers : {0u, 1u, 3u}) {
        ThreadPool pool(workers);
        for (uint64_t count : {0ull, 1ull, 7ull, 256ull, 10000ull}) {
            std::vector<std::atomic<uint32_t>> hits(count);
            std::atomic<uint64_t> total{0};
            pool.parallelFor(count, [&](uint64_t i) {
                hits[i].fetch_add(1);
                total.fetch_add(1);
            });
            EXPECT_EQ(total.load(), count)
                << workers << " workers, count " << count;
            for (uint64_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1u)
                    << "index " << i << " with " << workers
                    << " workers";
        }
    }
}

TEST(ThreadPoolProperty, ReusableAcrossManyJobs)
{
    ThreadPool pool(2);
    std::atomic<uint64_t> total{0};
    for (int job = 0; job < 50; ++job)
        pool.parallelFor(job, [&](uint64_t) { total.fetch_add(1); });
    // sum 0..49
    EXPECT_EQ(total.load(), 49ull * 50 / 2);
}

TEST(ThreadPoolProperty, ThrowingWorkItemIsFatal)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    ASSERT_DEATH(
        {
            ThreadPool pool(2);
            pool.parallelFor(64, [&](uint64_t i) {
                if (i == 13)
                    throw std::runtime_error("boom");
            });
        },
        "");
}

// ---------------------------------------------------------------------------
// Property: parallelForRange covers [0, count) with disjoint ranges,
// each index exactly once, and hands out worker slots usable as
// indices into a per-worker accumulator array (0 = caller).
// ---------------------------------------------------------------------------

TEST(ThreadPoolProperty, RangesCoverEveryIndexExactlyOnce)
{
    for (int workers : {0, 1, 3}) {
        ThreadPool pool(workers);
        for (uint64_t count : {0ull, 1ull, 2ull, 7ull, 10000ull}) {
            std::vector<std::atomic<uint32_t>> hits(count);
            std::vector<uint64_t> per_worker(pool.workerCount() + 1, 0);
            std::mutex mtx;
            pool.parallelForRange(
                count, [&](uint64_t begin, uint64_t end, unsigned w) {
                    ASSERT_LT(w, pool.workerCount() + 1);
                    ASSERT_LE(begin, end);
                    for (uint64_t i = begin; i < end; ++i)
                        hits[i].fetch_add(1);
                    std::lock_guard<std::mutex> lk(mtx);
                    per_worker[w] += end - begin;
                });
            uint64_t total = 0;
            for (uint64_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1u)
                    << "index " << i << " with " << workers
                    << " workers";
            for (uint64_t n : per_worker)
                total += n;
            EXPECT_EQ(total, count);
        }
    }
}

TEST(ThreadPoolProperty, SerialPoolRunsRangesOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    unsigned seen_worker = 99;
    uint64_t covered = 0;
    pool.parallelForRange(100, [&](uint64_t b, uint64_t e, unsigned w) {
        seen_worker = w;
        covered += e - b;
    });
    EXPECT_EQ(seen_worker, 0u); // slot 0 = calling thread
    EXPECT_EQ(covered, 100u);
}

// ---------------------------------------------------------------------------
// VCB_THREADS governs the global pool size (reproducible perf runs):
// N means N total executing threads, i.e. N-1 pool workers; invalid
// values fall back to the hardware default.
// ---------------------------------------------------------------------------

TEST(ThreadPoolProperty, VcbThreadsEnvOverride)
{
    const char *old = std::getenv("VCB_THREADS");
    std::string saved = old ? old : "";

    setenv("VCB_THREADS", "5", 1);
    EXPECT_EQ(ThreadPool::globalWorkers(), 4);
    setenv("VCB_THREADS", "1", 1);
    EXPECT_EQ(ThreadPool::globalWorkers(), 0); // fully serial

    // Invalid values fall back to the hardware default (-1).
    for (const char *bad : {"0", "-3", "abc", "4097", "2x"}) {
        setenv("VCB_THREADS", bad, 1);
        EXPECT_EQ(ThreadPool::globalWorkers(), -1) << bad;
    }
    unsetenv("VCB_THREADS");
    EXPECT_EQ(ThreadPool::globalWorkers(), -1);

    // A pool built from the override honours the worker count.
    setenv("VCB_THREADS", "3", 1);
    ThreadPool pool(ThreadPool::globalWorkers());
    EXPECT_EQ(pool.workerCount(), 2u);

    if (old)
        setenv("VCB_THREADS", saved.c_str(), 1);
    else
        unsetenv("VCB_THREADS");
}

// ---------------------------------------------------------------------------
// The global pool accepts jobs from several threads at once (the serve
// broker's sessions all dispatch through it): every submitter's range
// must still be covered exactly once, with no cross-talk between
// concurrently running jobs.
// ---------------------------------------------------------------------------

TEST(ThreadPoolProperty, ConcurrentSubmittersCoverExactlyOnce)
{
    ThreadPool pool(3);
    constexpr int kSubmitters = 4;
    constexpr uint64_t kCount = 5000;
    constexpr int kRounds = 8;

    std::vector<std::thread> submitters;
    std::atomic<int> failures{0};
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&pool, &failures] {
            for (int round = 0; round < kRounds; ++round) {
                std::vector<std::atomic<uint32_t>> hits(kCount);
                pool.parallelForRange(
                    kCount,
                    [&](uint64_t begin, uint64_t end, unsigned) {
                        for (uint64_t i = begin; i < end; ++i)
                            hits[i].fetch_add(1);
                    });
                for (uint64_t i = 0; i < kCount; ++i)
                    if (hits[i].load() != 1u)
                        ++failures;
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// UVM property: a seeded random alloc/free trace against UvmAccounting
// (the one bookkeeping object all three front-ends embed) keeps
// heapUsed exactly equal to a shadow sum of live allocations — no
// drift — and every placement / derate answer follows the model's
// definition at the moment of the call.
// ---------------------------------------------------------------------------

class UvmAccountingTrace : public ::testing::TestWithParam<int>
{
};

TEST_P(UvmAccountingTrace, HeapUsedNeverDriftsFromShadowSum)
{
    const uint64_t seed =
        std::getenv("VCB_PROPERTY_SEED")
            ? std::strtoull(std::getenv("VCB_PROPERTY_SEED"), nullptr,
                            10)
            : 42;
    Rng rng(seed * 1000 + static_cast<uint64_t>(GetParam()));

    DeviceSpec dev = adreno506();
    dev.deviceHeapBytes = 1 << 20;
    // Mix of hard-cap and paging parts across trials.
    dev.uvmOversubscription = GetParam() % 2 ? 4.0 : 1.0;
    dev.uvmPageBytes = 64 * 1024;
    dev.uvmOversubBwDerate = 0.5;
    ASSERT_EQ(dev.uvmPagingEnabled(), GetParam() % 2 == 1);

    UvmAccounting uvm(dev);
    std::vector<uint64_t> live; // shadow allocation list
    uint64_t shadow = 0;
    uint64_t placed_paged = 0, refused = 0;

    for (int step = 0; step < 2000; ++step) {
        bool do_alloc = live.empty() || rng.nextBelow(3) != 0;
        if (do_alloc) {
            // Sizes from 4 B to ~2x the cap, so every Placement arm
            // is exercised (DeviceLocal, Paged, TooBig).
            uint64_t bytes =
                4 + rng.nextBelow(2 * dev.uvmCapBytes());
            auto placement = uvm.alloc(bytes);
            if (placement == UvmAccounting::Placement::TooBig) {
                // Refused: usage must be untouched.
                ++refused;
                ASSERT_GT(shadow + bytes, dev.uvmCapBytes()) << step;
            } else {
                // Placement matches the model's predicate against the
                // usage BEFORE this allocation.
                bool paged = shadow + bytes > dev.deviceHeapBytes;
                ASSERT_EQ(placement == UvmAccounting::Placement::Paged,
                          paged)
                    << "seed " << seed << " step " << step;
                if (paged)
                    ++placed_paged;
                ASSERT_LE(shadow + bytes, dev.uvmCapBytes()) << step;
                shadow += bytes;
                live.push_back(bytes);
            }
        } else {
            size_t i = rng.nextBelow(live.size());
            uvm.free(live[i]);
            shadow -= live[i];
            live[i] = live.back();
            live.pop_back();
        }
        // The invariant proper: exact equality, every step.
        ASSERT_EQ(uvm.heapUsed(), shadow)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(uvm.oversubscribed(), shadow > dev.deviceHeapBytes)
            << step;
        ASSERT_EQ(uvm.bwDerate(), uvm.oversubscribed()
                                      ? dev.uvmOversubBwDerate
                                      : 1.0)
            << step;
    }
    // Hard-cap trials can never page; paging trials must have (the
    // size distribution guarantees both arms are hit).
    if (!dev.uvmPagingEnabled()) {
        EXPECT_EQ(placed_paged, 0u);
        EXPECT_GT(refused, 0u);
    } else {
        EXPECT_GT(placed_paged, 0u);
    }
    // Draining every live allocation returns usage to exactly zero.
    for (uint64_t bytes : live)
        uvm.free(bytes);
    EXPECT_EQ(uvm.heapUsed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UvmAccountingTrace,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Serve property: a seeded random request mix answered by a concurrent
// multi-session broker is bit-identical to the serial golden path
// (same hashes, same simulated times), for any seed.
// ---------------------------------------------------------------------------

TEST(ServeProperty, SeededRandomMixMatchesSerialGolden)
{
    struct Combo
    {
        const char *bench, *api, *device;
    };
    // Known-good (bench, api, device) triples at size index 0.
    static const Combo kCombos[] = {
        {"bfs", "vulkan", "gtx1050ti"},
        {"bfs", "opencl", "gtx1050ti"},
        {"bfs", "cuda", "gtx1050ti"},
        {"pathfinder", "vulkan", "gtx1050ti"},
        {"pathfinder", "opencl", "gtx1050ti"},
        {"hotspot", "cuda", "gtx1050ti"},
        {"nw", "vulkan", "rx560"},
        {"nw", "opencl", "rx560"},
    };
    const uint64_t seed =
        std::getenv("VCB_PROPERTY_SEED")
            ? std::strtoull(std::getenv("VCB_PROPERTY_SEED"), nullptr,
                            10)
            : 42;
    Rng rng(seed);

    std::vector<serve::Request> mix;
    for (int i = 0; i < 10; ++i) {
        const Combo &c = kCombos[rng.nextBelow(std::size(kCombos))];
        serve::Request r;
        r.id = "p" + std::to_string(i);
        r.bench = c.bench;
        r.api = c.api;
        r.device = c.device;
        mix.push_back(r);
    }

    std::vector<serve::Response> golden;
    for (const serve::Request &r : mix)
        golden.push_back(serve::executeRequest(r));

    serve::ServeBroker broker(serve::BrokerConfig{3, {}});
    std::vector<serve::Response> served(mix.size());
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&] {
            for (;;) {
                size_t i = cursor.fetch_add(1);
                if (i >= mix.size())
                    return;
                served[i] = broker.submitSync(mix[i]);
            }
        });
    }
    for (auto &t : clients)
        t.join();

    for (size_t i = 0; i < mix.size(); ++i) {
        ASSERT_TRUE(golden[i].ok)
            << "seed " << seed << " " << mix[i].id << ": "
            << golden[i].error;
        ASSERT_TRUE(served[i].ok)
            << "seed " << seed << " " << mix[i].id << ": "
            << served[i].error;
        EXPECT_TRUE(served[i].validated) << mix[i].id;
        EXPECT_EQ(served[i].resultHash, golden[i].resultHash)
            << "seed " << seed << " " << mix[i].id;
        EXPECT_EQ(served[i].kernelRegionNs, golden[i].kernelRegionNs)
            << "seed " << seed << " " << mix[i].id;
        EXPECT_EQ(served[i].totalNs, golden[i].totalNs)
            << "seed " << seed << " " << mix[i].id;
        EXPECT_EQ(served[i].launches, golden[i].launches)
            << "seed " << seed << " " << mix[i].id;
    }
}

} // namespace
} // namespace vcb::sim
