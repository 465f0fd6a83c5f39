/**
 * @file
 * pathfinder — dynamic programming on a 2-D grid (Grid Traversal).
 *
 * Rows depend on each other, so the OpenCL/CUDA runner uses the
 * multi-kernel method: one launch per row with a host sync (Sync step
 * per iteration).  The preferred Vulkan strategy is batched: every row
 * in a single command buffer with a pipeline barrier between rows,
 * ping-ponging the two row buffers by alternating binding lists — the
 * paper's flagship Vulkan-specific optimisation (Sec. IV-C).
 * Re-record-per-iteration is the sweepable naive baseline.
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

struct GridData
{
    uint32_t rows = 0, cols = 0;
    std::vector<int32_t> data;
};

GridData
generateGrid(uint32_t rows, uint32_t cols, uint64_t seed)
{
    Rng rng(seed);
    GridData g;
    g.rows = rows;
    g.cols = cols;
    g.data.resize(uint64_t(rows) * cols);
    for (auto &v : g.data)
        v = static_cast<int32_t>(rng.nextBelow(10));
    return g;
}

/** CPU reference: the final DP row and the row before it (zeros when
 *  the grid has one row), as the two ping-pong buffers end up. */
struct Reference
{
    std::vector<int32_t> last, prev;
};

Reference
referencePathfinder(const GridData &g)
{
    Reference ref;
    ref.last.assign(g.data.begin(), g.data.begin() + g.cols);
    ref.prev.assign(g.cols, 0);
    for (uint32_t r = 1; r < g.rows; ++r) {
        for (uint32_t j = 0; j < g.cols; ++j) {
            int32_t best = ref.last[j];
            if (j > 0)
                best = std::min(best, ref.last[j - 1]);
            if (j + 1 < g.cols)
                best = std::min(best, ref.last[j + 1]);
            ref.prev[j] = g.data[uint64_t(r) * g.cols + j] + best;
        }
        std::swap(ref.last, ref.prev);
    }
    return ref;
}

enum BufferIx : size_t { B_DATA, B_RA, B_RB };
enum HostIx : size_t { H_OUT, H_PREV };

Workload
makeWorkload(GridData grid)
{
    auto in = std::make_shared<const GridData>(std::move(grid));
    const GridData &g = *in;

    Workload w;
    w.name = "pathfinder";
    w.kernels = {kernels::buildPathfinderRow()};
    // Row 0 of the data seeds the DP in buffer A.
    std::vector<uint32_t> data_words = wordsOf(g.data);
    std::vector<uint32_t> row0(data_words.begin(),
                               data_words.begin() + g.cols);
    w.buffers = {{g.data.size() * 4, std::move(data_words)},
                 {uint64_t(g.cols) * 4, std::move(row0)},
                 {uint64_t(g.cols) * 4, {}}};
    w.host = {std::vector<uint32_t>(g.cols), std::vector<uint32_t>(g.cols)};

    uint32_t groups = static_cast<uint32_t>(ceilDiv(g.cols, 256));
    uint32_t cols = g.cols;
    w.bodyFor = [groups, cols](uint32_t it) {
        uint32_t r = it + 1;
        bool ping = r % 2 == 1; // odd rows read A, write B
        return std::vector<WorkloadStep>{
            dispatchStep(0, groups, 1, 1, {pw(cols), pw(r)},
                         {{0, B_DATA},
                          {1, ping ? B_RA : B_RB},
                          {2, ping ? B_RB : B_RA}}),
            barrierStep(), syncStep()};
    };
    w.iterations = g.rows - 1;
    bool last_in_a = g.rows % 2 == 1;
    w.epilogue = {readbackStep(last_in_a ? B_RA : B_RB, H_OUT)};
    w.inspect = {readbackStep(last_in_a ? B_RB : B_RA, H_PREV)};
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        Reference ref = referencePathfinder(*in);
        std::string err = compareInts(intsOf(h[H_OUT]), ref.last);
        if (err.empty())
            err = compareInts(intsOf(h[H_PREV]), ref.prev);
        return err;
    };
    return w;
}

class PathfinderBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "pathfinder"; }
    std::string fullName() const override { return "Path Finder"; }
    std::string dwarf() const override { return "Dynamic Programming"; }
    std::string domain() const override { return "Grid Traversal"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 10K / 50K / 100K columns, 100 rows.
        return {{"10K", {64, 16384}},
                {"50K", {64, 32768}},
                {"100K", {64, 65536}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"512", {32, 512}}, {"1024", {32, 1024}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateGrid(static_cast<uint32_t>(cfg.params[0]),
                         static_cast<uint32_t>(cfg.params[1]),
                         workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makePathfinder()
{
    static PathfinderBenchmark b;
    return &b;
}

} // namespace vcb::suite
