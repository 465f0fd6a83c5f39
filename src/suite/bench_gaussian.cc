/**
 * @file
 * gaussian — Gaussian Elimination (Dense Linear Algebra).
 *
 * n-1 dependent elimination steps of two kernels each (Fan1, Fan2).
 * The per-step push constants (n, t) and dispatch sizes shrink as the
 * elimination proceeds, so the body varies per iteration: the
 * preferred Vulkan strategy is batched (all steps recorded into one
 * command buffer, the paper's method), with re-record-per-iteration as
 * the sweepable naive baseline.  CUDA/OpenCL: blocking multi-kernel
 * iterations.
 */

#include "suite/benchmark.h"

#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

struct LinearSystem
{
    uint32_t n = 0;
    std::vector<float> a;
    std::vector<float> b;
};

LinearSystem
generateSystem(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    LinearSystem s;
    s.n = n;
    s.a.resize(uint64_t(n) * n);
    s.b.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        float row_sum = 0;
        for (uint32_t j = 0; j < n; ++j) {
            float v = rng.nextFloat(0.1f, 1.0f);
            s.a[uint64_t(i) * n + j] = v;
            row_sum += v;
        }
        // Diagonal dominance keeps the elimination numerically stable.
        s.a[uint64_t(i) * n + i] = row_sum + 1.0f;
        s.b[i] = rng.nextFloat(0.0f, 10.0f);
    }
    return s;
}

/** CPU reference: the same elimination order (Fan1 then Fan2), in
 *  place.  @return the multipliers, laid out as Fan1 writes them. */
std::vector<float>
referenceEliminate(LinearSystem &s)
{
    uint32_t n = s.n;
    std::vector<float> m(uint64_t(n) * n, 0.0f);
    for (uint32_t t = 0; t + 1 < n; ++t) {
        for (uint32_t i = t + 1; i < n; ++i)
            m[uint64_t(i) * n + t] =
                s.a[uint64_t(i) * n + t] / s.a[uint64_t(t) * n + t];
        for (uint32_t i = t + 1; i < n; ++i) {
            float mult = m[uint64_t(i) * n + t];
            for (uint32_t j = t; j < n; ++j)
                s.a[uint64_t(i) * n + j] -=
                    mult * s.a[uint64_t(t) * n + j];
            s.b[i] -= mult * s.b[t];
        }
    }
    return m;
}

enum BufferIx : size_t { B_A, B_M, B_B };
enum HostIx : size_t { H_A, H_B, H_M };

Workload
makeWorkload(LinearSystem s)
{
    auto in = std::make_shared<const LinearSystem>(std::move(s));
    const LinearSystem &sys = *in;
    uint32_t n = sys.n;

    Workload w;
    w.name = "gaussian";
    w.kernels = {kernels::buildGaussianFan1(),
                 kernels::buildGaussianFan2()};
    w.buffers = {{uint64_t(n) * n * 4, wordsOf(sys.a)},
                 {uint64_t(n) * n * 4, {}},
                 {uint64_t(n) * 4, wordsOf(sys.b)}};
    w.host = {std::vector<uint32_t>(uint64_t(n) * n),
              std::vector<uint32_t>(n),
              std::vector<uint32_t>(uint64_t(n) * n)};

    w.bodyFor = [n](uint32_t t) {
        uint32_t rows = n - 1 - t;
        uint64_t cells = uint64_t(rows) * (n - t);
        return std::vector<WorkloadStep>{
            dispatchStep(0, (uint32_t)ceilDiv(rows, 256), 1, 1,
                         {pw(n), pw(t)}, {{0, B_A}, {1, B_M}}),
            barrierStep(),
            dispatchStep(1, (uint32_t)ceilDiv(cells, 256), 1, 1,
                         {pw(n), pw(t)},
                         {{0, B_A}, {1, B_M}, {2, B_B}}),
            barrierStep(),
            syncStep()};
    };
    w.iterations = n - 1;
    w.epilogue = {readbackStep(B_A, H_A), readbackStep(B_B, H_B)};
    w.inspect = {readbackStep(B_M, H_M)};
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        LinearSystem ref = *in;
        std::vector<float> m = referenceEliminate(ref);
        std::string err = compareFloats(floatsOf(h[H_A]), ref.a);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_B]), ref.b);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_M]), m);
        return err;
    };
    return w;
}

class GaussianBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "gaussian"; }
    std::string fullName() const override
    {
        return "Gaussian Elimination";
    }
    std::string dwarf() const override
    {
        return "Dense Linear Algebra";
    }
    std::string domain() const override { return "Linear Algebra"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 208 / 1024 / 2048.
        return {{"208", {96}}, {"1024", {160}}, {"2048", {224}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"208", {48}}, {"416", {80}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateSystem(static_cast<uint32_t>(cfg.params[0]),
                           workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeGaussian()
{
    static GaussianBenchmark b;
    return &b;
}

} // namespace vcb::suite
