/**
 * @file
 * nn — K-Nearest Neighbors (Dense Linear Algebra / Data Mining).
 *
 * The distance pass is embarrassingly parallel, so the record set is
 * split into independent slices — one dispatch per slice, declared
 * with no dependency edges between them (Workload::dag).  On the
 * multi-queue Vulkan path the slices spread across compute queues and
 * genuinely overlap; every serial path (OpenCL, CUDA, single-queue
 * Vulkan) just runs them back to back.  Per-record math is unchanged
 * from the single-dispatch version, so results are bit-identical at
 * any queue count.  The host selects the K nearest afterwards
 * (outside the kernel-time region, as in Rodinia).
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

struct Records
{
    uint32_t n = 0;
    float qLat = 30.0f, qLng = 90.0f;
    std::vector<float> lat, lng;
};

Records
generateRecords(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    Records r;
    r.n = n;
    r.lat.resize(n);
    r.lng.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        r.lat[i] = rng.nextFloat(0.0f, 90.0f);
        r.lng[i] = rng.nextFloat(0.0f, 180.0f);
    }
    return r;
}

std::vector<float>
referenceDistances(const Records &r)
{
    std::vector<float> d(r.n);
    for (uint32_t i = 0; i < r.n; ++i) {
        float dlat = r.lat[i] - r.qLat;
        float dlng = r.lng[i] - r.qLng;
        d[i] = std::sqrt(std::fma(dlat, dlat, dlng * dlng));
    }
    return d;
}

/** Independent record slices (one dispatch each; all sizes are
 *  multiples of this, but the split handles remainders anyway). */
constexpr size_t kChunks = 4;

// Buffers: per chunk c, {lat, lng, dist} at 3c / 3c+1 / 3c+2.
// Host arrays: per chunk c, the slice's distances at index c.

Workload
makeWorkload(Records recs)
{
    auto in = std::make_shared<const Records>(std::move(recs));
    const Records &r = *in;

    Workload w;
    w.name = "nn";
    w.kernels = {kernels::buildNnEuclid()};
    w.dag = true;

    std::vector<size_t> bounds(kChunks + 1);
    for (size_t c = 0; c <= kChunks; ++c)
        bounds[c] = size_t(r.n) * c / kChunks;
    for (size_t c = 0; c < kChunks; ++c) {
        uint32_t cn = uint32_t(bounds[c + 1] - bounds[c]);
        std::vector<float> lat(r.lat.begin() + bounds[c],
                               r.lat.begin() + bounds[c + 1]);
        std::vector<float> lng(r.lng.begin() + bounds[c],
                               r.lng.begin() + bounds[c + 1]);
        uint64_t bytes = uint64_t(cn) * 4;
        w.buffers.push_back({bytes, wordsOf(lat)});
        w.buffers.push_back({bytes, wordsOf(lng)});
        w.buffers.push_back({bytes, {}});
        w.host.push_back(std::vector<uint32_t>(cn));
        w.body.push_back(dispatchStep(
            0, (uint32_t)ceilDiv(cn, 256), 1, 1,
            {pw(cn), pwF(r.qLat), pwF(r.qLng)},
            {{0, 3 * c}, {1, 3 * c + 1}, {2, 3 * c + 2}}));
        w.epilogue.push_back(readbackStep(3 * c + 2, c));
    }
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        std::vector<float> dist;
        for (size_t c = 0; c < kChunks; ++c) {
            std::vector<float> part = floatsOf(h[c]);
            dist.insert(dist.end(), part.begin(), part.end());
        }
        std::string err = compareFloats(dist, referenceDistances(*in));
        // Host-side top-K selection (outside the timed region), kept
        // to mirror the Rodinia host behaviour.
        std::partial_sort(dist.begin(),
                          dist.begin() +
                              std::min<size_t>(5, dist.size()),
                          dist.end());
        return err;
    };
    return w;
}

class NnBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "nn"; }
    std::string fullName() const override
    {
        return "K-Nearest Neighbors";
    }
    std::string dwarf() const override
    {
        return "Dense Linear Algebra";
    }
    std::string domain() const override { return "Data Mining"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 256K / 8M / 16M records.
        return {{"256K", {262144}}, {"8M", {1048576}}, {"16M", {2097152}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"256K", {65536}}, {"8M", {262144}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateRecords(static_cast<uint32_t>(cfg.params[0]),
                            workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeNn()
{
    static NnBenchmark b;
    return &b;
}

} // namespace vcb::suite
