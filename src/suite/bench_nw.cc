/**
 * @file
 * nw — Needleman-Wunsch DNA sequence alignment (Dynamic Programming).
 *
 * 2*nb-1 dependent launches over block anti-diagonals.  The hosts do
 * not need data between launches, so the OpenCL/CUDA runner enqueues
 * ahead on the in-order queue (no Sync steps in the body) — which is
 * why the paper groups nw with the benchmarks where all APIs perform
 * similarly.  The per-diagonal pushes and dispatch counts vary, so the
 * preferred Vulkan strategy is batched (all diagonals in one command
 * buffer), with re-record as the sweepable baseline.
 */

#include "suite/benchmark.h"

#include <algorithm>
#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

constexpr uint32_t B = kernels::nwBlockSize;
constexpr int32_t penalty = 10;

struct Alignment
{
    uint32_t n = 0;  ///< payload dimension (multiple of 16)
    uint32_t nn = 0; ///< matrix dimension (n + 1, with border row/col)
    std::vector<int32_t> itemsets;  // nn * nn, border-initialised
    std::vector<int32_t> reference; // nn * nn similarity scores
};

Alignment
generateAlignment(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    Alignment a;
    a.n = static_cast<uint32_t>(alignUp(n, B));
    a.nn = a.n + 1;
    a.itemsets.assign(uint64_t(a.nn) * a.nn, 0);
    a.reference.assign(uint64_t(a.nn) * a.nn, 0);
    for (uint32_t i = 1; i <= a.n; ++i)
        for (uint32_t j = 1; j <= a.n; ++j)
            a.reference[uint64_t(i) * a.nn + j] =
                static_cast<int32_t>(rng.nextRange(-4, 8));
    for (uint32_t i = 1; i <= a.n; ++i) {
        a.itemsets[uint64_t(i) * a.nn] =
            -static_cast<int32_t>(i) * penalty;
        a.itemsets[i] = -static_cast<int32_t>(i) * penalty;
    }
    return a;
}

std::vector<int32_t>
referenceNw(const Alignment &a)
{
    std::vector<int32_t> m = a.itemsets;
    for (uint32_t i = 1; i <= a.n; ++i) {
        for (uint32_t j = 1; j <= a.n; ++j) {
            int32_t diag = m[uint64_t(i - 1) * a.nn + (j - 1)] +
                           a.reference[uint64_t(i) * a.nn + j];
            int32_t up = m[uint64_t(i - 1) * a.nn + j] - penalty;
            int32_t left = m[uint64_t(i) * a.nn + (j - 1)] - penalty;
            m[uint64_t(i) * a.nn + j] =
                std::max(diag, std::max(up, left));
        }
    }
    return m;
}

enum BufferIx : size_t { B_ITEMS, B_REF };
enum HostIx : size_t { H_ITEMS };

Workload
makeWorkload(Alignment al)
{
    auto in = std::make_shared<const Alignment>(std::move(al));
    const Alignment &a = *in;
    uint64_t bytes = uint64_t(a.nn) * a.nn * 4;
    uint32_t nb = a.n / B;

    Workload w;
    w.name = "nw";
    w.kernels = {kernels::buildNwBlock()};
    w.buffers = {{bytes, wordsOf(a.itemsets)},
                 {bytes, wordsOf(a.reference)}};
    w.host = {std::vector<uint32_t>(uint64_t(a.nn) * a.nn)};

    uint32_t n = a.n;
    // Block anti-diagonal walk: s in [0, 2nb-1), x in [xStart, xEnd].
    w.bodyFor = [n, nb](uint32_t s) {
        uint32_t x_start = s >= nb ? s - nb + 1 : 0;
        uint32_t x_end = std::min(s, nb - 1);
        uint32_t count = x_end - x_start + 1;
        return std::vector<WorkloadStep>{
            dispatchStep(0, count, 1, 1,
                         {pw(n), pw(s), pw(x_start),
                          pw(static_cast<uint32_t>(penalty))},
                         {{0, B_ITEMS}, {1, B_REF}}),
            barrierStep()};
    };
    w.iterations = 2 * nb - 1;
    w.epilogue = {readbackStep(B_ITEMS, H_ITEMS)};
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        return compareInts(intsOf(h[H_ITEMS]), referenceNw(*in));
    };
    return w;
}

class NwBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "nw"; }
    std::string fullName() const override { return "Needleman-Wunsch"; }
    std::string dwarf() const override { return "Dynamic Programming"; }
    std::string domain() const override { return "Bioinformatics"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 4K / 8K / 16K sequence lengths.
        return {{"4K", {1024}}, {"8K", {1536}}, {"16K", {2048}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"1K", {384}}, {"2K", {512}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateAlignment(static_cast<uint32_t>(cfg.params[0]),
                              workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeNw()
{
    static NwBenchmark b;
    return &b;
}

} // namespace vcb::suite
