/**
 * @file
 * bfs — Breadth-First Search (Graph Traversal / Graph Theory).
 *
 * Host structure (all APIs): level-synchronous frontier expansion; the
 * host must read the continue flag back every level, so every API pays
 * a host round trip per level (the paper's bfs result is therefore
 * decided by kernel quality, not launch overhead — Sec. V-A2).
 *
 * The per-level program (zero the stop flag, kernel1, barrier,
 * kernel2, read the stop flag) is identical every level, so the
 * preferred Vulkan strategy is record-once-resubmit; the stop flag
 * lives in a mapped host-visible buffer.
 */

#include "suite/benchmark.h"

#include <deque>
#include <memory>

#include "common/logging.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

/** A CSR graph. */
struct Graph
{
    uint32_t n = 0;
    int32_t source = 0;
    std::vector<int32_t> start;
    std::vector<int32_t> degree;
    std::vector<int32_t> edges;
};

/** Deterministic random CSR graph: node i gets 2 + Rng::nextBelow(9)
 *  out-edges to uniformly random targets. */
Graph
generateGraph(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    Graph g;
    g.n = n;
    g.start.resize(n);
    g.degree.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        g.start[i] = static_cast<int32_t>(g.edges.size());
        uint32_t deg = 2 + static_cast<uint32_t>(rng.nextBelow(9));
        g.degree[i] = static_cast<int32_t>(deg);
        for (uint32_t e = 0; e < deg; ++e)
            g.edges.push_back(static_cast<int32_t>(rng.nextBelow(n)));
    }
    return g;
}

/** Frontier BFS from g.source: per-node cost, -1 when unreachable. */
std::vector<int32_t>
referenceBfs(const Graph &g)
{
    std::vector<int32_t> cost(g.n, -1);
    std::deque<int32_t> frontier;
    cost[g.source] = 0;
    frontier.push_back(g.source);
    while (!frontier.empty()) {
        int32_t u = frontier.front();
        frontier.pop_front();
        for (int32_t e = g.start[u]; e < g.start[u] + g.degree[u]; ++e) {
            int32_t v = g.edges[e];
            if (cost[v] < 0) {
                cost[v] = cost[u] + 1;
                frontier.push_back(v);
            }
        }
    }
    return cost;
}

enum BufferIx : size_t
{
    B_START,
    B_DEG,
    B_EDGES,
    B_MASK,
    B_UMASK,
    B_VISITED,
    B_COST,
    B_STOP
};
enum HostIx : size_t { H_ZERO, H_STOP, H_COST, H_MASK, H_UMASK, H_VISITED };

Workload
makeWorkload(Graph graph)
{
    auto in = std::make_shared<const Graph>(std::move(graph));
    const Graph &g = *in;

    Workload w;
    w.name = "bfs";
    w.kernels = {kernels::buildBfsKernel1(), kernels::buildBfsKernel2()};

    // The level-synchronous kernels' working state before the first
    // level: only the source is in the frontier, visited, at cost 0.
    std::vector<int32_t> mask(g.n, 0), umask(g.n, 0), visited(g.n, 0),
        cost(g.n, -1);
    mask[g.source] = visited[g.source] = 1;
    cost[g.source] = 0;

    uint64_t node_bytes = uint64_t(g.n) * 4;
    w.buffers = {{node_bytes, wordsOf(g.start)},
                 {node_bytes, wordsOf(g.degree)},
                 {g.edges.size() * 4, wordsOf(g.edges)},
                 {node_bytes, wordsOf(mask)},
                 {node_bytes, wordsOf(umask)},
                 {node_bytes, wordsOf(visited)},
                 {node_bytes, wordsOf(cost)},
                 {4, {}, /*hostVisible=*/true}};
    w.host = {{0u}, {0u}, std::vector<uint32_t>(g.n),
              std::vector<uint32_t>(g.n), std::vector<uint32_t>(g.n),
              std::vector<uint32_t>(g.n)};

    uint32_t groups = static_cast<uint32_t>(ceilDiv(g.n, 256));
    w.body = {uploadStep(B_STOP, H_ZERO),
              dispatchStep(0, groups, 1, 1, {pw(g.n)},
                           {{0, B_START},
                            {1, B_DEG},
                            {2, B_EDGES},
                            {3, B_MASK},
                            {4, B_UMASK},
                            {5, B_VISITED},
                            {6, B_COST}}),
              barrierStep(),
              dispatchStep(1, groups, 1, 1, {pw(g.n)},
                           {{0, B_MASK},
                            {1, B_UMASK},
                            {2, B_VISITED},
                            {3, B_STOP}}),
              readbackStep(B_STOP, H_STOP)};
    w.iterations = UINT32_MAX; // until the frontier drains
    w.converged = [](const HostArrays &h) { return h[H_STOP][0] == 0; };
    w.epilogue = {readbackStep(B_COST, H_COST)};
    w.inspect = {readbackStep(B_MASK, H_MASK),
                 readbackStep(B_UMASK, H_UMASK),
                 readbackStep(B_VISITED, H_VISITED)};
    w.preferred = SubmitStrategy::RecordOnce;
    w.validate = [in](const HostArrays &h) {
        std::vector<int32_t> cost = referenceBfs(*in);
        std::string err = compareInts(intsOf(h[H_COST]), cost);
        if (!err.empty())
            return err;
        // The last level drained the frontier: both masks end empty and
        // exactly the reached nodes are visited.
        for (size_t i = 0; i < cost.size(); ++i) {
            uint32_t visited = cost[i] >= 0 ? 1 : 0;
            if (h[H_MASK][i] != 0 || h[H_UMASK][i] != 0 ||
                h[H_VISITED][i] != visited)
                return strprintf("node %zu: mask %u, umask %u, visited "
                                 "%u (expected 0, 0, %u)",
                                 i, h[H_MASK][i], h[H_UMASK][i],
                                 h[H_VISITED][i], visited);
        }
        return err;
    };
    return w;
}

class BfsBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "bfs"; }
    std::string fullName() const override
    {
        return "Breadth-First Search";
    }
    std::string dwarf() const override { return "Graph Traversal"; }
    std::string domain() const override { return "Graph Theory"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 4K / 64K / 1M nodes.  Simulated graphs are sized so
        // all three points sit in the kernel-dominated regime the
        // paper's 1M-node result demonstrates.
        return {{"4K", {49152}}, {"64K", {98304}}, {"1M", {196608}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"4k", {2048}}, {"16k", {8192}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateGraph(static_cast<uint32_t>(cfg.params[0]),
                          workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeBfs()
{
    static BfsBenchmark b;
    return &b;
}

} // namespace vcb::suite
