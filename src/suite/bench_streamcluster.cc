/**
 * @file
 * streamcluster — online clustering (Dense Linear Algebra / Data
 * Mining), the pgain evaluation loop of Rodinia streamcluster.
 *
 * Host structure (all APIs): for each candidate centre the device
 * evaluates every point's switch decision (branch-divergent pairwise
 * distances), then the host reads the per-point savings back, sums the
 * gain and — when profitable — reassigns the switched points before
 * the next candidate.  One dispatch and one blocking readback per
 * candidate on every API; the candidate index is a per-round push
 * value, so Vulkan re-records the command buffer every round
 * (re-record is the only applicable strategy, like srad).
 */

#include "suite/benchmark.h"

#include <memory>

#include "common/logging.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

struct Stream
{
    uint32_t n = 0, dim = 0, candidates = 0;
    std::vector<float> soa;    ///< dim x n coordinates
    std::vector<float> weight; ///< per-point weight
};

Stream
generateStream(uint32_t n, uint32_t dim, uint32_t candidates,
               uint64_t seed)
{
    Rng rng(seed);
    Stream st;
    st.n = n;
    st.dim = dim;
    st.candidates = candidates;
    st.soa.resize(uint64_t(dim) * n);
    for (auto &v : st.soa)
        v = rng.nextFloat(0.0f, 100.0f);
    st.weight.resize(n);
    for (auto &w : st.weight)
        w = rng.nextFloat(1.0f, 4.0f);
    return st;
}

uint32_t
candidateIndex(const Stream &st, uint32_t round)
{
    return (round * 97u + 13u) % st.n;
}

/** Mirror of the kernel's distance loop (ascending features, named
 *  temporaries) — switch decisions must match bit-for-bit. */
float
distTo(const Stream &st, uint32_t i, uint32_t x)
{
    float d = 0.0f;
    for (uint32_t j = 0; j < st.dim; ++j) {
        float diff = st.soa[size_t(j) * st.n + i] -
                     st.soa[size_t(j) * st.n + x];
        float sq = diff * diff;
        d = d + sq;
    }
    return d;
}

std::vector<float>
initialCost(const Stream &st)
{
    // Every point starts assigned to point 0.
    std::vector<float> cost(st.n);
    for (uint32_t i = 0; i < st.n; ++i)
        cost[i] = st.weight[i] * distTo(st, i, 0);
    return cost;
}

/** Host decision shared by the reference and the workload's host
 *  callback: sum the savings in index order; a profitable candidate
 *  captures its switched points. */
bool
applyCandidate(const Stream &st, uint32_t x,
               const std::vector<float> &lower,
               const std::vector<int32_t> &sw, std::vector<float> &cost)
{
    float gain = 0.0f;
    for (uint32_t i = 0; i < st.n; ++i)
        gain = gain + lower[i];
    if (!(gain > 0.0f))
        return false;
    for (uint32_t i = 0; i < st.n; ++i)
        if (sw[i])
            cost[i] = st.weight[i] * distTo(st, i, x);
    return true;
}

/** From-scratch CPU reference: every round's per-point savings and
 *  switch flags, and the final per-point assignment cost. */
struct Reference
{
    std::vector<std::vector<float>> lower;
    std::vector<std::vector<int32_t>> sw;
    std::vector<float> cost;
};

Reference
referenceStreamcluster(const Stream &st)
{
    Reference ref;
    ref.cost = initialCost(st);
    for (uint32_t r = 0; r < st.candidates; ++r) {
        uint32_t x = candidateIndex(st, r);
        std::vector<float> lower(st.n, 0.0f);
        std::vector<int32_t> sw(st.n, 0);
        for (uint32_t i = 0; i < st.n; ++i) {
            float cost_new = st.weight[i] * distTo(st, i, x);
            if (cost_new < ref.cost[i]) {
                lower[i] = ref.cost[i] - cost_new;
                sw[i] = 1;
            }
        }
        applyCandidate(st, x, lower, sw, ref.cost);
        ref.lower.push_back(std::move(lower));
        ref.sw.push_back(std::move(sw));
    }
    return ref;
}

enum BufferIx : size_t { B_SOA, B_W, B_COST, B_LOWER, B_SW };
// Host layout: cost, applied flag, then round r's {lower, switch}
// readbacks at 2 + 2r / 3 + 2r.
enum HostIx : size_t { H_COST, H_APPLIED };
constexpr size_t H_LOWER(uint32_t r) { return 2 + 2 * size_t(r); }
constexpr size_t H_SW(uint32_t r) { return 3 + 2 * size_t(r); }

Workload
makeWorkload(Stream stream)
{
    auto in = std::make_shared<const Stream>(std::move(stream));
    const Stream &st = *in;
    uint64_t coord_bytes = uint64_t(st.dim) * st.n * 4;
    uint64_t n_bytes = uint64_t(st.n) * 4;

    Workload w;
    w.name = "streamcluster";
    w.kernels = {kernels::buildStreamclusterGain()};
    w.buffers = {{coord_bytes, wordsOf(st.soa)},
                 {n_bytes, wordsOf(st.weight)},
                 {n_bytes, wordsOf(initialCost(st))},
                 {n_bytes, {}},
                 {n_bytes, {}}};
    // Each round reads back into its own pair of host arrays, so the
    // final host state keeps every round's device answer.
    w.host = {wordsOf(initialCost(st)), {0u}};
    for (uint32_t r = 0; r < st.candidates; ++r) {
        w.host.push_back(std::vector<uint32_t>(st.n));
        w.host.push_back(std::vector<uint32_t>(st.n));
    }

    const uint32_t groups = (uint32_t)ceilDiv(st.n, 256);
    w.bodyFor = [in, groups](uint32_t r) {
        const Stream &s = *in;
        uint32_t x = candidateIndex(s, r);
        return std::vector<WorkloadStep>{
            dispatchStep(0, groups, 1, 1, {pw(s.n), pw(s.dim), pw(x)},
                         {{0, B_SOA},
                          {1, B_W},
                          {2, B_COST},
                          {3, B_LOWER},
                          {4, B_SW}}),
            readbackStep(B_LOWER, H_LOWER(r)),
            readbackStep(B_SW, H_SW(r)),
            hostStep([in, x, r](HostArrays &h) {
                std::vector<float> cost = floatsOf(h[H_COST]);
                bool applied =
                    applyCandidate(*in, x, floatsOf(h[H_LOWER(r)]),
                                   intsOf(h[H_SW(r)]), cost);
                h[H_COST] = wordsOf(cost);
                h[H_APPLIED][0] = applied ? 1 : 0;
            }),
            // A profitable candidate pushes the reassigned costs back.
            uploadIfStep(B_COST, H_COST, H_APPLIED, 0)};
    };
    w.iterations = st.candidates;
    w.preferred = SubmitStrategy::ReRecord;
    w.validate = [in](const HostArrays &h) {
        Reference ref = referenceStreamcluster(*in);
        for (uint32_t r = 0; r < in->candidates; ++r) {
            std::string err =
                compareFloats(floatsOf(h[H_LOWER(r)]), ref.lower[r]);
            if (err.empty())
                err = compareInts(intsOf(h[H_SW(r)]), ref.sw[r]);
            if (!err.empty())
                return strprintf("round %u: %s", r, err.c_str());
        }
        return compareFloats(floatsOf(h[H_COST]), ref.cost);
    };
    return w;
}

class StreamclusterBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "streamcluster"; }
    std::string fullName() const override { return "Stream Cluster"; }
    std::string dwarf() const override { return "Dense Linear Algebra"; }
    std::string domain() const override { return "Data Mining"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // params: {points, dimensions, candidate centres}.
        return {{"16K", {16384, 8, 8}},
                {"32K", {32768, 8, 8}},
                {"64K", {65536, 8, 8}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"2K", {2048, 8, 4}}, {"4K", {4096, 8, 4}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateStream(static_cast<uint32_t>(cfg.params[0]),
                           static_cast<uint32_t>(cfg.params[1]),
                           static_cast<uint32_t>(cfg.params[2]),
                           workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeStreamcluster()
{
    static StreamclusterBenchmark b;
    return &b;
}

} // namespace vcb::suite
