/**
 * @file
 * kmeans — K-Means clustering (Dense Linear Algebra / Data Mining),
 * the Rodinia convergence-loop family.
 *
 * Host structure (all APIs): the assignment kernel runs on the device,
 * but the centroids are recomputed on the host from the memberships,
 * so every iteration uploads centroids, dispatches, and reads the
 * membership array and the atomic changed-counter back — the blocking
 * multi-kernel method on every API.  The per-iteration program is
 * identical (only buffer contents move), so the preferred Vulkan
 * strategy is record-once-resubmit; the iteration count is decided
 * purely by the data (loop until delta == 0 or maxIters), which is
 * what the convergence-determinism tests pin down.
 *
 * The point set is split into independent slices, each with its own
 * feature/membership/delta buffers against the shared (read-only
 * within an iteration) centroid buffer; the per-slice assignment
 * dispatches carry dependency edges (Workload::dag) so the
 * multi-queue Vulkan path overlaps them across compute queues.  A
 * slice's SoA values and distance-accumulation order match the
 * unsliced layout element for element, and total delta is the sum of
 * slice deltas, so memberships, the convergence trajectory and the
 * final centroids are bit-identical at any queue count.
 */

#include "suite/benchmark.h"

#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

/** Upper bound on convergence iterations (Rodinia caps at 500; the
 *  simulated sizes converge far earlier, the cap merely bounds test
 *  time).  The CPU reference applies the same cap, so validation holds
 *  even for a non-converged configuration. */
constexpr uint32_t kMaxIters = 20;

struct Points
{
    uint32_t n = 0, f = 0, k = 0;
    std::vector<float> aos; ///< n x f feature matrix
};

Points
generatePoints(uint32_t n, uint32_t f, uint32_t k, uint64_t seed)
{
    Rng rng(seed);
    Points p;
    p.n = n;
    p.f = f;
    p.k = k;
    p.aos.resize(uint64_t(n) * f);
    for (auto &v : p.aos)
        v = rng.nextFloat(0.0f, 10.0f);
    return p;
}

/** One CPU assignment pass mirroring kmeans_assign's operation order
 *  (SoA feature walk, named temporaries, strict less-than).
 *  @return number of changed memberships. */
int32_t
assignOnCpu(const Points &p, const std::vector<float> &soa,
            const std::vector<float> &cent, std::vector<int32_t> &mem)
{
    int32_t delta = 0;
    for (uint32_t i = 0; i < p.n; ++i) {
        int32_t best = 0;
        float best_dist = 3.402823466e38f;
        for (uint32_t c = 0; c < p.k; ++c) {
            float dist = 0.0f;
            for (uint32_t j = 0; j < p.f; ++j) {
                float diff = soa[size_t(j) * p.n + i] -
                             cent[size_t(c) * p.f + j];
                float sq = diff * diff;
                dist = dist + sq;
            }
            if (dist < best_dist) {
                best_dist = dist;
                best = (int32_t)c;
            }
        }
        if (mem[i] != best)
            ++delta;
        mem[i] = best;
    }
    return delta;
}

/** Host-side centroid update shared by the reference and the
 *  workload's host callback: mean of each cluster's members, empty
 *  clusters keep their previous centre. */
void
updateCentroids(const Points &p, const std::vector<int32_t> &mem,
                std::vector<float> &cent)
{
    std::vector<float> sums(size_t(p.k) * p.f, 0.0f);
    std::vector<uint32_t> counts(p.k, 0);
    for (uint32_t i = 0; i < p.n; ++i) {
        ++counts[(uint32_t)mem[i]];
        for (uint32_t j = 0; j < p.f; ++j) {
            size_t off = size_t(mem[i]) * p.f + j;
            sums[off] = sums[off] + p.aos[size_t(i) * p.f + j];
        }
    }
    for (uint32_t c = 0; c < p.k; ++c)
        for (uint32_t j = 0; j < p.f; ++j)
            if (counts[c] > 0)
                cent[size_t(c) * p.f + j] =
                    sums[size_t(c) * p.f + j] / (float)counts[c];
}

std::vector<float>
initialCentroids(const Points &p)
{
    // Rodinia seeds the centroids with the first k points.
    return std::vector<float>(p.aos.begin(),
                              p.aos.begin() + size_t(p.k) * p.f);
}

std::vector<float>
transposed(const Points &p)
{
    std::vector<float> soa(size_t(p.n) * p.f);
    for (uint32_t i = 0; i < p.n; ++i)
        for (uint32_t j = 0; j < p.f; ++j)
            soa[size_t(j) * p.n + i] = p.aos[size_t(i) * p.f + j];
    return soa;
}

/** Full CPU reference: the final membership and every iteration's
 *  changed-membership count. */
struct Reference
{
    std::vector<int32_t> mem;
    std::vector<int32_t> deltas;
};

Reference
referenceKmeans(const Points &p)
{
    auto soa = transposed(p);
    auto cent = initialCentroids(p);
    Reference ref;
    ref.mem.assign(p.n, -1);
    for (uint32_t it = 0; it < kMaxIters; ++it) {
        int32_t delta = assignOnCpu(p, soa, cent, ref.mem);
        ref.deltas.push_back(delta);
        updateCentroids(p, ref.mem, cent);
        if (delta == 0)
            break;
    }
    return ref;
}

/** Independent point slices; each gets its own assignment dispatch. */
constexpr size_t kChunks = 4;

// Buffer layout: B_CENT shared, then per chunk c a quartet
// {aos, soa, mem, delta} starting at 1 + 4c.
enum BufferIx : size_t { B_CENT };
constexpr size_t B_AOS(size_t c) { return 1 + 4 * c; }
constexpr size_t B_SOA(size_t c) { return 2 + 4 * c; }
constexpr size_t B_MEM(size_t c) { return 3 + 4 * c; }
constexpr size_t B_DELTA(size_t c) { return 4 + 4 * c; }

// Host layout: zero word, centroids, the combined delta of every
// iteration so far, then per chunk c {delta, mem} at 3 + 2c / 4 + 2c,
// then each chunk's transposed features.
enum HostIx : size_t { H_ZERO, H_CENT, H_DELTAS };
constexpr size_t H_CDELTA(size_t c) { return 3 + 2 * c; }
constexpr size_t H_MEM(size_t c) { return 4 + 2 * c; }
constexpr size_t H_SOA(size_t c) { return 3 + 2 * kChunks + c; }

Workload
makeWorkload(Points pts)
{
    auto in = std::make_shared<const Points>(std::move(pts));
    const Points &p = *in;
    uint64_t cent_bytes = uint64_t(p.k) * p.f * 4;

    Workload w;
    w.name = "kmeans";
    w.kernels = {kernels::buildKmeansSwap(), kernels::buildKmeansAssign()};
    w.dag = true;
    w.buffers = {{cent_bytes, {}}};
    w.host = {{0u}, wordsOf(initialCentroids(p)), {}};

    std::vector<size_t> bounds(kChunks + 1);
    for (size_t c = 0; c <= kChunks; ++c)
        bounds[c] = size_t(p.n) * c / kChunks;
    std::vector<uint32_t> cns(kChunks);
    for (size_t c = 0; c < kChunks; ++c) {
        uint32_t cn = cns[c] = uint32_t(bounds[c + 1] - bounds[c]);
        std::vector<float> aos(p.aos.begin() + bounds[c] * p.f,
                               p.aos.begin() + bounds[c + 1] * p.f);
        w.buffers.push_back({uint64_t(cn) * p.f * 4, wordsOf(aos)});
        w.buffers.push_back({uint64_t(cn) * p.f * 4, {}});
        w.buffers.push_back(
            {uint64_t(cn) * 4,
             wordsOf(std::vector<int32_t>(cn, -1))});
        w.buffers.push_back({4, {}});
        w.host.push_back({0u});
        w.host.push_back(std::vector<uint32_t>(cn));
    }
    for (size_t c = 0; c < kChunks; ++c) {
        w.host.push_back(std::vector<uint32_t>(size_t(cns[c]) * p.f));
        w.inspect.push_back(readbackStep(B_SOA(c), H_SOA(c)));
    }

    // One-time per-slice feature transposes — independent dag roots.
    for (size_t c = 0; c < kChunks; ++c)
        w.prologue.push_back(dispatchStep(
            0, (uint32_t)ceilDiv(cns[c], 256), 1, 1,
            {pw(cns[c]), pw(p.f)}, {{0, B_AOS(c)}, {1, B_SOA(c)}}));

    // The per-iteration program is identical every iteration (only
    // buffer contents change): record once, resubmit.  Step indices:
    // 0 centroid upload, 1..kChunks delta clears, then per chunk the
    // assignment dispatch (after the shared upload and its own clear)
    // and two readbacks behind it; the trailing host step folds slice
    // results together.
    w.body.push_back(uploadStep(B_CENT, H_CENT));
    for (size_t c = 0; c < kChunks; ++c)
        w.body.push_back(uploadStep(B_DELTA(c), H_ZERO));
    const size_t firstAssign = w.body.size();
    for (size_t c = 0; c < kChunks; ++c)
        w.body.push_back(withDeps(
            dispatchStep(1, (uint32_t)ceilDiv(cns[c], 256), 1, 1,
                         {pw(cns[c]), pw(p.f), pw(p.k)},
                         {{0, B_SOA(c)},
                          {1, B_CENT},
                          {2, B_MEM(c)},
                          {3, B_DELTA(c)}}),
            {0, 1 + c}));
    std::vector<size_t> readbacks;
    for (size_t c = 0; c < kChunks; ++c) {
        readbacks.push_back(w.body.size());
        w.body.push_back(withDeps(readbackStep(B_DELTA(c), H_CDELTA(c)),
                                  {firstAssign + c}));
        readbacks.push_back(w.body.size());
        w.body.push_back(withDeps(readbackStep(B_MEM(c), H_MEM(c)),
                                  {firstAssign + c}));
    }
    w.body.push_back(withDeps(
        hostStep([in](HostArrays &h) {
            int32_t delta = 0;
            std::vector<int32_t> mem;
            for (size_t c = 0; c < kChunks; ++c) {
                delta += static_cast<int32_t>(h[H_CDELTA(c)][0]);
                std::vector<int32_t> part = intsOf(h[H_MEM(c)]);
                mem.insert(mem.end(), part.begin(), part.end());
            }
            h[H_DELTAS].push_back(static_cast<uint32_t>(delta));
            std::vector<float> cent = floatsOf(h[H_CENT]);
            updateCentroids(*in, mem, cent);
            h[H_CENT] = wordsOf(cent);
        }),
        readbacks));
    w.iterations = kMaxIters;
    w.converged = [](const HostArrays &h) {
        return h[H_DELTAS].back() == 0;
    };
    w.preferred = SubmitStrategy::RecordOnce;
    w.validate = [in, bounds](const HostArrays &h) {
        const Points &p = *in;
        std::vector<int32_t> mem;
        for (size_t c = 0; c < kChunks; ++c) {
            std::vector<int32_t> part = intsOf(h[H_MEM(c)]);
            mem.insert(mem.end(), part.begin(), part.end());
            // The transpose is a pure copy: exact.
            Points slice{uint32_t(bounds[c + 1] - bounds[c]), p.f, p.k,
                         {p.aos.begin() + bounds[c] * p.f,
                          p.aos.begin() + bounds[c + 1] * p.f}};
            std::string err = compareFloats(floatsOf(h[H_SOA(c)]),
                                            transposed(slice), 0.0, 0.0);
            if (!err.empty())
                return "transposed features: " + err;
        }
        Reference ref = referenceKmeans(p);
        std::string err = compareInts(intsOf(h[H_DELTAS]), ref.deltas);
        if (!err.empty())
            return "per-iteration deltas: " + err;
        return compareInts(mem, ref.mem);
    };
    return w;
}

class KmeansBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "kmeans"; }
    std::string fullName() const override { return "K-Means Clustering"; }
    std::string dwarf() const override { return "Dense Linear Algebra"; }
    std::string domain() const override { return "Data Mining"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // params: {points, features, clusters}.
        return {{"8K", {8192, 4, 5}},
                {"32K", {32768, 4, 5}},
                {"64K", {65536, 4, 5}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"2K", {2048, 4, 5}}, {"8K", {8192, 4, 5}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generatePoints(static_cast<uint32_t>(cfg.params[0]),
                           static_cast<uint32_t>(cfg.params[1]),
                           static_cast<uint32_t>(cfg.params[2]),
                           workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeKmeans()
{
    static KmeansBenchmark b;
    return &b;
}

} // namespace vcb::suite
