/**
 * @file
 * lud — LU Decomposition (Dense Linear Algebra), blocked 16x16.
 *
 * nb dependent steps of up to three kernels (diagonal, perimeter,
 * internal); the per-step pushes and dispatch sizes shrink with the
 * trailing submatrix, so the body varies per iteration: preferred
 * Vulkan strategy batched (one command buffer, three pipelines bound
 * per step), re-record as the sweepable baseline.  CUDA/OpenCL:
 * blocking multi-kernel iterations.  This is the benchmark whose
 * OpenCL build fails on the Snapdragon (paper Sec. V-B2), reproduced
 * via the Adreno driver profile.
 */

#include "suite/benchmark.h"

#include <cmath>
#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

constexpr uint32_t B = kernels::blockSize;

struct Matrix
{
    uint32_t n = 0;
    std::vector<float> a;
};

Matrix
generateMatrix(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix m;
    m.n = static_cast<uint32_t>(alignUp(n, B));
    m.a.resize(uint64_t(m.n) * m.n);
    for (uint32_t i = 0; i < m.n; ++i) {
        float row_sum = 0;
        for (uint32_t j = 0; j < m.n; ++j) {
            float v = rng.nextFloat(0.01f, 1.0f);
            m.a[uint64_t(i) * m.n + j] = v;
            row_sum += v;
        }
        m.a[uint64_t(i) * m.n + i] = row_sum + 2.0f;
    }
    return m;
}

/** CPU reference: the same blocked algorithm in the same float order
 *  (diagonal, then perimeter row/column blocks, then internal). */
std::vector<float>
referenceLud(const Matrix &mat)
{
    uint32_t n = mat.n, nb = n / B;
    std::vector<float> a = mat.a;
    auto at = [&](uint32_t r, uint32_t c) -> float & {
        return a[uint64_t(r) * n + c];
    };
    for (uint32_t t = 0; t < nb; ++t) {
        uint32_t base = t * B;
        // Diagonal block.
        for (uint32_t i = 0; i + 1 < B; ++i)
            for (uint32_t j = i + 1; j < B; ++j) {
                at(base + j, base + i) /= at(base + i, base + i);
                float l = at(base + j, base + i);
                for (uint32_t k = i + 1; k < B; ++k)
                    at(base + j, base + k) -= l * at(base + i, base + k);
            }
        if (t + 1 == nb)
            break;
        // Perimeter row blocks (U panels).
        for (uint32_t cb = t + 1; cb < nb; ++cb)
            for (uint32_t j = 0; j < B; ++j)      // column of the block
                for (uint32_t i = 0; i < B; ++i) { // row (sequential)
                    float acc = at(base + i, cb * B + j);
                    for (uint32_t k = 0; k < i; ++k)
                        acc -= at(base + i, base + k) *
                               at(base + k, cb * B + j);
                    at(base + i, cb * B + j) = acc;
                }
        // Perimeter column blocks (L panels).
        for (uint32_t rb = t + 1; rb < nb; ++rb)
            for (uint32_t j = 0; j < B; ++j)       // row of the block
                for (uint32_t i = 0; i < B; ++i) { // column (sequential)
                    float acc = at(rb * B + j, base + i);
                    for (uint32_t k = 0; k < i; ++k)
                        acc -= at(rb * B + j, base + k) *
                               at(base + k, base + i);
                    at(rb * B + j, base + i) =
                        acc / at(base + i, base + i);
                }
        // Internal blocks.
        for (uint32_t rb = t + 1; rb < nb; ++rb)
            for (uint32_t cb = t + 1; cb < nb; ++cb)
                for (uint32_t i = 0; i < B; ++i)
                    for (uint32_t j = 0; j < B; ++j) {
                        float acc = 0;
                        for (uint32_t k = 0; k < B; ++k)
                            acc = std::fma(at(rb * B + i, base + k),
                                           at(base + k, cb * B + j),
                                           acc);
                        at(rb * B + i, cb * B + j) -= acc;
                    }
    }
    return a;
}

enum BufferIx : size_t { B_MAT };
enum HostIx : size_t { H_A };

Workload
makeWorkload(Matrix m)
{
    auto in = std::make_shared<const Matrix>(std::move(m));
    const Matrix &mat = *in;
    uint32_t n = mat.n, nb = n / B;

    Workload w;
    w.name = "lud";
    w.kernels = {kernels::buildLudDiagonal(), kernels::buildLudPerimeter(),
                 kernels::buildLudInternal()};
    w.buffers = {{uint64_t(n) * n * 4, wordsOf(mat.a)}};
    w.host = {std::vector<uint32_t>(uint64_t(n) * n)};

    w.bodyFor = [n, nb](uint32_t t) {
        std::vector<WorkloadStep> steps = {
            dispatchStep(0, 1, 1, 1, {pw(n), pw(t)}, {{0, B_MAT}}),
            barrierStep()};
        if (t + 1 < nb) {
            uint32_t rem = nb - t - 1;
            steps.push_back(dispatchStep(1, 2 * rem, 1, 1,
                                         {pw(n), pw(t), pw(rem)},
                                         {{0, B_MAT}}));
            steps.push_back(barrierStep());
            steps.push_back(dispatchStep(2, rem, rem, 1,
                                         {pw(n), pw(t)}, {{0, B_MAT}}));
            steps.push_back(barrierStep());
        }
        steps.push_back(syncStep());
        return steps;
    };
    w.iterations = nb;
    w.epilogue = {readbackStep(B_MAT, H_A)};
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        return compareFloats(floatsOf(h[H_A]), referenceLud(*in));
    };
    return w;
}

class LudBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "lud"; }
    std::string fullName() const override { return "LU Decomposition"; }
    std::string dwarf() const override
    {
        return "Dense Linear Algebra";
    }
    std::string domain() const override { return "Linear Algebra"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 256 / 512 / 2048.
        return {{"256", {128}}, {"512", {192}}, {"2048", {256}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"64", {64}}, {"256", {128}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateMatrix(static_cast<uint32_t>(cfg.params[0]),
                           workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeLud()
{
    static LudBenchmark b;
    return &b;
}

} // namespace vcb::suite
