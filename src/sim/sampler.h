/**
 * @file
 * Memory-coalescing sampler.
 *
 * GPUs service a warp's simultaneous memory accesses as a set of cache
 * line transactions; the number of *distinct* lines a warp touches per
 * access determines achieved bandwidth (the whole point of the paper's
 * strided microbenchmark, Figs. 1 and 3).  The interpreter does not
 * run warps in lockstep, so instead we *sample* a few workgroups: for
 * every global-memory site we group the k-th dynamic execution by each
 * lane with the k-th execution by the other lanes of the same warp and
 * count distinct lines in the group.  The per-site
 * transactions-per-access ratio from the sampled workgroups is then
 * applied to the site's dispatch-wide access count.
 *
 * A group is a set keyed by (site, per-lane occurrence, warp), so only
 * each lane's own order of accesses at a site matters, never how the
 * lanes interleave: the lane-major executors record lane by lane
 * (record), the trace/block executors one memory op's lane vector at a
 * time (recordLanes), and both give the same ratios.
 *
 * Exact for regular kernels (all of the suite's except bfs's data
 * dependent loops, where it is a documented approximation).
 */

#ifndef VCB_SIM_SAMPLER_H
#define VCB_SIM_SAMPLER_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace vcb::sim {

/** Collects per-site coalescing ratios from sampled workgroups. */
class CoalesceSampler
{
  public:
    /**
     * @param num_sites   number of global-memory sites in the kernel
     * @param warp_width  coalescing granularity of the device
     * @param line_bytes  cache line size
     * @param local_count invocations per workgroup
     */
    CoalesceSampler(uint32_t num_sites, uint32_t warp_width,
                    uint32_t line_bytes, uint32_t local_count);

    /** Reset per-workgroup state before sampling a workgroup. */
    void beginWorkgroup();

    /** Record one access: lane linear id, site slot, byte address. */
    void record(uint32_t lane, uint32_t site, uint64_t byte_addr)
    {
        VCB_ASSERT(site < numSites && lane < localCount,
                   "sampler record out of range");
        uint32_t &occ = occCount[static_cast<size_t>(site) * localCount +
                                 lane];
        const uint32_t occ_idx = std::min(occ, occCap - 1);
        ++occ;
        addLine(group(site, occ_idx, static_cast<uint32_t>(warpOf(lane))),
                lineOf(byte_addr));
        agg[site].accesses += 1;
    }

    /** Record one access at `site` by each of lanes [lane0, lane0 + n),
     *  lane l at word address word_addr[l - lane0] — what the op-major
     *  executor sees for one memory op.  Equivalent to n record()
     *  calls: each group is a set, so only the per-lane order of one
     *  site's accesses matters, never the interleaving across lanes.
     *  Consecutive lanes of one warp at one occurrence share a group,
     *  so the group is looked up once per such run. */
    void recordLanes(uint32_t lane0, uint32_t n, uint32_t site,
                     const uint32_t *word_addr)
    {
        VCB_ASSERT(site < numSites && lane0 + n <= localCount,
                   "sampler record out of range");
        uint32_t *const occ =
            occCount.data() + static_cast<size_t>(site) * localCount +
            lane0;
        uint32_t l = 0;
        while (l < n) {
            const uint64_t warp = warpOf(lane0 + l);
            const uint64_t warp_end =
                std::min<uint64_t>(n, (warp + 1) * warpOf.d - lane0);
            const uint32_t occ_idx = std::min(occ[l], occCap - 1);
            std::vector<uint64_t> &lines =
                group(site, occ_idx, static_cast<uint32_t>(warp));
            uint64_t last = lineOf(uint64_t(word_addr[l]) * 4);
            addLine(lines, last);
            ++occ[l];
            for (++l;
                 l < warp_end && std::min(occ[l], occCap - 1) == occ_idx;
                 ++l) {
                const uint64_t line = lineOf(uint64_t(word_addr[l]) * 4);
                if (line != last) {
                    addLine(lines, line);
                    last = line;
                }
                ++occ[l];
            }
        }
        agg[site].accesses += n;
    }

    /** Fold the finished workgroup into the per-site aggregates. */
    void endWorkgroup();

    /** Transactions-per-access for a site; 1.0 when never sampled
     *  (conservative: fully uncoalesced). */
    double ratioFor(uint32_t site) const;

    /** True if the site was observed in any sampled workgroup. */
    bool sampled(uint32_t site) const;

  private:
    /** Occurrences beyond the cap share the last bucket. */
    static constexpr uint32_t occCap = 128;

    struct SiteAgg
    {
        uint64_t accesses = 0;
        uint64_t transactions = 0;
    };

    /** x / d for a divisor fixed at construction: a shift when d is a
     *  power of two (every shipped device), else a real division. */
    struct Divisor
    {
        uint64_t d;
        int shift; ///< log2(d), or -1 when d is not a power of two

        explicit Divisor(uint64_t v)
            : d(v),
              shift(v != 0 && (v & (v - 1)) == 0 ? std::countr_zero(v)
                                                 : -1)
        {
        }
        uint64_t operator()(uint64_t x) const
        {
            return shift >= 0 ? x >> shift : x / d;
        }
    };

    /** The distinct-line set of (site, occurrence, warp). */
    std::vector<uint64_t> &group(uint32_t site, uint32_t occ_idx,
                                 uint32_t warp)
    {
        const uint32_t key = (site * occCap + occ_idx) * numWarps + warp;
        int32_t slot = slotOf[key];
        if (slot < 0)
            slot = newSlot(key);
        return linePool[slot];
    }

    static void addLine(std::vector<uint64_t> &lines, uint64_t line)
    {
        // Groups normally hold at most one line per warp lane; a linear
        // scan suffices (the saturated last occ bucket can grow larger).
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }

    /** Hand out the next free line-set slot for `key`. */
    int32_t newSlot(uint32_t key);

    uint32_t numSites;
    uint32_t localCount;
    uint32_t numWarps;
    Divisor warpOf; ///< lane -> warp
    Divisor lineOf; ///< byte address -> cache line

    std::vector<SiteAgg> agg;
    /** Current workgroup: per (site, lane) occurrence counters, site-
     *  major so one op's lanes are adjacent. */
    std::vector<uint32_t> occCount;

    // Distinct-line sets of the current workgroup, keyed by the dense
    // (site, occ, warp) index.  Slots are handed out on first touch —
    // the record() hot path is an array lookup instead of a hash
    // probe.  Each slot's line vector usually holds <= warpWidth
    // entries (one line per warp lane), but the saturated last occ
    // bucket aggregates every execution past occCap, so the vectors
    // stay growable; their capacity is reused across workgroups.
    std::vector<int32_t> slotOf;                ///< key -> slot or -1
    std::vector<uint32_t> touched;              ///< keys used this wg
    std::vector<std::vector<uint64_t>> linePool; ///< per-slot lines
};

} // namespace vcb::sim

#endif // VCB_SIM_SAMPLER_H
