/**
 * @file
 * srad — Speckle Reducing Anisotropic Diffusion (Structured Grid /
 * Image Processing), a Rodinia family the paper's suite inherits.
 *
 * Host structure (all APIs): every iteration needs the image mean and
 * variance, so the host dispatches the reduction, reads the partial
 * sums back, folds them into q0sqr, and only then can it issue the two
 * stencil steps with q0sqr as a push value.  The readback in the
 * middle of every iteration means no API can run the loop purely
 * enqueue-ahead, and the host-computed q0sqr push pins Vulkan to the
 * re-record strategy (a command buffer recorded earlier would bake a
 * stale value) — srad is the suite's one inherently re-record
 * workload, next to streamcluster.
 */

#include "suite/benchmark.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

struct Image
{
    uint32_t g = 0;     ///< image edge (multiple of 16)
    uint32_t iters = 0; ///< diffusion iterations
    float lambda = 0.05f;
    std::vector<float> j;
};

Image
generateImage(uint32_t g, uint32_t iters, uint64_t seed)
{
    Rng rng(seed);
    Image im;
    im.g = g;
    im.iters = iters;
    im.j.resize(uint64_t(g) * g);
    for (auto &v : im.j)
        v = rng.nextFloat(1.0f, 2.0f);
    return im;
}

/** Fold device (or mirrored) partial sums into q0sqr — the one copy
 *  of the host-side statistics math, shared by the CPU reference and
 *  the workload's host callback so all paths stay bit-identical. */
float
foldQ0sqr(const std::vector<float> &psum, const std::vector<float> &psum2,
          uint32_t n)
{
    float sum = 0.0f, sum2 = 0.0f;
    for (size_t blk = 0; blk < psum.size(); ++blk) {
        sum = sum + psum[blk];
        sum2 = sum2 + psum2[blk];
    }
    const float nf = (float)n;
    float mean = sum / nf;
    float m2 = mean * mean;
    float var = sum2 / nf - m2;
    return var / m2;
}

/** Mirror of srad_reduce's tree: per 256-lane block, the partial sums
 *  of j and j^2 the device writes. */
void
reducePartials(const std::vector<float> &j, uint32_t n,
               std::vector<float> &psum, std::vector<float> &psum2)
{
    uint32_t blocks = (uint32_t)ceilDiv(n, 256);
    psum.resize(blocks);
    psum2.resize(blocks);
    for (uint32_t blk = 0; blk < blocks; ++blk) {
        float p[256], p2[256];
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t gi = blk * 256 + i;
            float v = gi < n ? j[gi] : 0.0f;
            p[i] = v;
            p2[i] = v * v;
        }
        for (uint32_t str = 128; str >= 1; str /= 2) {
            for (uint32_t i = 0; i < str; ++i) {
                p[i] = p[i] + p[i + str];
                p2[i] = p2[i] + p2[i + str];
            }
        }
        psum[blk] = p[0];
        psum2[blk] = p2[0];
    }
}

/** From-scratch CPU reference mirroring the kernels' operation order
 *  (named temporaries keep mul+add pairs uncontracted): the final image
 *  and the last iteration's reduction partials and diffusion
 *  coefficients. */
struct Reference
{
    std::vector<float> j, psum, psum2, c;
};

Reference
referenceSrad(const Image &im)
{
    const uint32_t g = im.g, n = g * g;
    Reference ref;
    std::vector<float> j = im.j, c(n), dn(n), ds(n), dw(n), de(n);
    auto clampi = [&](int32_t v) {
        return std::min(std::max(v, 0), (int32_t)g - 1);
    };
    for (uint32_t it = 0; it < im.iters; ++it) {
        reducePartials(j, n, ref.psum, ref.psum2);
        float q0 = foldQ0sqr(ref.psum, ref.psum2, n);
        for (int32_t r = 0; r < (int32_t)g; ++r) {
            for (int32_t col = 0; col < (int32_t)g; ++col) {
                size_t idx = size_t(r) * g + col;
                float jc = j[idx];
                auto at = [&](int32_t rr, int32_t cc) {
                    return j[size_t(clampi(rr)) * g + clampi(cc)];
                };
                dn[idx] = at(r - 1, col) - jc;
                ds[idx] = at(r + 1, col) - jc;
                dw[idx] = at(r, col - 1) - jc;
                de[idx] = at(r, col + 1) - jc;
                float sqa = dn[idx] * dn[idx];
                float sqb = ds[idx] * ds[idx];
                float sqc = dw[idx] * dw[idx];
                float sqd = de[idx] * de[idx];
                float sq = (sqa + sqb) + (sqc + sqd);
                float jc2 = jc * jc;
                float g2 = sq / jc2;
                float lsum = (dn[idx] + ds[idx]) + (dw[idx] + de[idx]);
                float l = lsum / jc;
                float hg = 0.5f * g2;
                float ll = l * l;
                float sl = 0.0625f * ll;
                float num = hg - sl;
                float qt = 0.25f * l;
                float den = 1.0f + qt;
                float dd = den * den;
                float qsqr = num / dd;
                float qd = qsqr - q0;
                float q1 = 1.0f + q0;
                float qq = q0 * q1;
                float den2 = qd / qq;
                float e1 = 1.0f + den2;
                float cval = 1.0f / e1;
                c[idx] = std::fmin(std::fmax(cval, 0.0f), 1.0f);
            }
        }
        for (int32_t r = 0; r < (int32_t)g; ++r) {
            for (int32_t col = 0; col < (int32_t)g; ++col) {
                size_t idx = size_t(r) * g + col;
                float cc = c[idx];
                float cs = c[size_t(clampi(r + 1)) * g + col];
                float ce = c[size_t(r) * g + clampi(col + 1)];
                float d = cc * dn[idx];
                float t1 = cs * ds[idx];
                d = d + t1;
                float t2 = cc * dw[idx];
                d = d + t2;
                float t3 = ce * de[idx];
                d = d + t3;
                float lam4 = 0.25f * im.lambda;
                j[idx] = std::fma(lam4, d, j[idx]);
            }
        }
    }
    ref.j = std::move(j);
    ref.c = std::move(c);
    return ref;
}

enum BufferIx : size_t
{
    B_J,
    B_PSUM,
    B_PSUM2,
    B_C,
    B_DN,
    B_DS,
    B_DW,
    B_DE
};
enum HostIx : size_t { H_PSUM, H_PSUM2, H_Q0, H_J, H_C };

Workload
makeWorkload(Image image)
{
    auto in = std::make_shared<const Image>(std::move(image));
    const Image &im = *in;
    const uint32_t g = im.g, n = g * g;
    const uint32_t blocks = (uint32_t)ceilDiv(n, 256);
    const uint32_t tiles = g / kernels::blockSize;
    uint64_t bytes = uint64_t(n) * 4;

    Workload w;
    w.name = "srad";
    w.kernels = {kernels::buildSradReduce(), kernels::buildSradStep1(),
                 kernels::buildSradStep2()};
    w.buffers = {{bytes, wordsOf(im.j)},
                 {uint64_t(blocks) * 4, {}},
                 {uint64_t(blocks) * 4, {}},
                 {bytes, {}},
                 {bytes, {}},
                 {bytes, {}},
                 {bytes, {}},
                 {bytes, {}}};
    w.host = {std::vector<uint32_t>(blocks),
              std::vector<uint32_t>(blocks), {0u},
              std::vector<uint32_t>(n), std::vector<uint32_t>(n)};

    std::vector<std::pair<uint32_t, size_t>> stencil_bindings = {
        {0, B_J}, {1, B_C}, {2, B_DN}, {3, B_DS}, {4, B_DW}, {5, B_DE}};
    w.body = {
        dispatchStep(0, blocks, 1, 1, {pw(n)},
                     {{0, B_J}, {1, B_PSUM}, {2, B_PSUM2}}),
        readbackStep(B_PSUM, H_PSUM),
        readbackStep(B_PSUM2, H_PSUM2),
        hostStep([n](HostArrays &h) {
            float q0 = foldQ0sqr(floatsOf(h[H_PSUM]),
                                 floatsOf(h[H_PSUM2]), n);
            h[H_Q0][0] = std::bit_cast<uint32_t>(q0);
        }),
        // Both stencil steps in one submission; q0sqr is resolved from
        // the host fold when the dispatch is issued.
        dispatchStep(1, tiles, tiles, 1, {pw(g), pwHost(H_Q0, 0)},
                     stencil_bindings),
        barrierStep(),
        dispatchStep(2, tiles, tiles, 1, {pw(g), pwF(im.lambda)},
                     stencil_bindings),
        syncStep(),
    };
    w.iterations = im.iters;
    w.epilogue = {readbackStep(B_J, H_J)};
    w.inspect = {readbackStep(B_C, H_C)};
    w.preferred = SubmitStrategy::ReRecord;
    w.validate = [in](const HostArrays &h) {
        Reference ref = referenceSrad(*in);
        std::string err = compareFloats(floatsOf(h[H_PSUM]), ref.psum);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_PSUM2]), ref.psum2);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_C]), ref.c);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_J]), ref.j);
        return err;
    };
    return w;
}

class SradBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "srad"; }
    std::string fullName() const override
    {
        return "Speckle Reducing Anisotropic Diffusion";
    }
    std::string dwarf() const override { return "Structured Grid"; }
    std::string domain() const override { return "Image Processing"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Rodinia runs 502x458; the simulated grids are 16-aligned.
        return {{"128", {128, 4}},
                {"256", {256, 4}},
                {"512", {512, 4}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"64", {64, 2}}, {"128", {128, 2}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateImage(static_cast<uint32_t>(cfg.params[0]),
                          static_cast<uint32_t>(cfg.params[1]),
                          workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeSrad()
{
    static SradBenchmark b;
    return &b;
}

} // namespace vcb::suite
