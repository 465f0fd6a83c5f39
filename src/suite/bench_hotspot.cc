/**
 * @file
 * hotspot — thermal simulation (Structured Grid / Physics).
 *
 * S dependent stencil steps over a g x g die; shared-memory tiled
 * kernel (the benchmark behind the Nexus Vulkan slowdown — weak
 * shared-memory codegen, Sec. V-B2).  The two buffers ping-pong via
 * alternating binding lists, so the body varies per iteration:
 * preferred Vulkan strategy batched (one command buffer, descriptor
 * ping-pong), with re-record as the sweepable baseline.  CUDA/OpenCL:
 * blocking step loop.
 */

#include "suite/benchmark.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

struct Die
{
    uint32_t g = 0;
    uint32_t steps = 0;
    std::vector<float> temp;
    std::vector<float> power;
    // Rodinia-style physical constants, pre-reduced to the kernel's
    // push-constant form.
    float cc = 0.05f;
    float rxInv = 0.4f;
    float ryInv = 0.4f;
    float rzInv = 0.1f;
    float amb = 80.0f;
};

Die
generateDie(uint32_t g, uint32_t steps, uint64_t seed)
{
    Rng rng(seed);
    Die d;
    d.g = g;
    d.steps = steps;
    d.temp.resize(uint64_t(g) * g);
    d.power.resize(uint64_t(g) * g);
    for (auto &t : d.temp)
        t = rng.nextFloat(70.0f, 90.0f);
    for (auto &p : d.power)
        p = rng.nextFloat(0.0f, 2.0f);
    return d;
}

std::vector<float>
referenceHotspot(const Die &d)
{
    uint32_t g = d.g;
    std::vector<float> cur = d.temp, next(cur.size());
    auto at = [&](const std::vector<float> &v, int64_t r,
                  int64_t c) -> float {
        r = std::min<int64_t>(std::max<int64_t>(r, 0), g - 1);
        c = std::min<int64_t>(std::max<int64_t>(c, 0), g - 1);
        return v[uint64_t(r) * g + uint64_t(c)];
    };
    for (uint32_t s = 0; s < d.steps; ++s) {
        for (uint32_t r = 0; r < g; ++r) {
            for (uint32_t c = 0; c < g; ++c) {
                float centre = cur[uint64_t(r) * g + c];
                float vert = at(cur, int64_t(r) - 1, c) +
                             at(cur, int64_t(r) + 1, c) - 2.0f * centre;
                float horiz = at(cur, r, int64_t(c) - 1) +
                              at(cur, r, int64_t(c) + 1) - 2.0f * centre;
                float delta = d.power[uint64_t(r) * g + c] +
                              vert * d.ryInv + horiz * d.rxInv +
                              (d.amb - centre) * d.rzInv;
                next[uint64_t(r) * g + c] =
                    std::fma(d.cc, delta, centre);
            }
        }
        std::swap(cur, next);
    }
    return cur;
}

std::vector<PushWord>
pushWords(const Die &d)
{
    return {pw(d.g),     pwF(d.cc),    pwF(d.rxInv),
            pwF(d.ryInv), pwF(d.rzInv), pwF(d.amb)};
}

enum BufferIx : size_t { B_TA, B_P, B_TB };
enum HostIx : size_t { H_OUT };

Workload
makeWorkload(Die die)
{
    auto in = std::make_shared<const Die>(std::move(die));
    const Die &d = *in;
    uint64_t bytes = uint64_t(d.g) * d.g * 4;

    Workload w;
    w.name = "hotspot";
    w.kernels = {kernels::buildHotspotStep()};
    w.buffers = {{bytes, wordsOf(d.temp)},
                 {bytes, wordsOf(d.power)},
                 {bytes, {}}};
    w.host = {std::vector<uint32_t>(uint64_t(d.g) * d.g)};

    uint32_t groups = d.g / kernels::blockSize;
    auto push = pushWords(d);
    w.bodyFor = [groups, push](uint32_t s) {
        // Ping-pong: even steps read A write B, odd the reverse.
        bool even = s % 2 == 0;
        return std::vector<WorkloadStep>{
            dispatchStep(0, groups, groups, 1, push,
                         {{0, even ? B_TA : B_TB},
                          {1, B_P},
                          {2, even ? B_TB : B_TA}}),
            barrierStep(), syncStep()};
    };
    w.iterations = d.steps;
    w.epilogue = {
        readbackStep((d.steps % 2 == 0) ? B_TA : B_TB, H_OUT)};
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        return compareFloats(floatsOf(h[H_OUT]), referenceHotspot(*in));
    };
    return w;
}

class HotspotBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "hotspot"; }
    std::string fullName() const override
    {
        return "Hotspot Simulation";
    }
    std::string dwarf() const override { return "Structured Grid"; }
    std::string domain() const override { return "Physics"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 512 grid with 8 / 16 / 32 steps.
        return {{"512-08", {256, 8}},
                {"512-16", {256, 16}},
                {"512-32", {256, 32}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"128-8", {128, 8}}, {"128-16", {128, 16}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateDie(static_cast<uint32_t>(cfg.params[0]),
                        static_cast<uint32_t>(cfg.params[1]),
                        workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeHotspot()
{
    static HotspotBenchmark b;
    return &b;
}

} // namespace vcb::suite
