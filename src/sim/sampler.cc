#include "sim/sampler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/mathutil.h"

namespace vcb::sim {

CoalesceSampler::CoalesceSampler(uint32_t num_sites, uint32_t warp_width,
                                 uint32_t line_bytes, uint32_t local_count)
    : numSites(num_sites), localCount(local_count),
      numWarps(static_cast<uint32_t>(ceilDiv(local_count, warp_width))),
      warpOf(warp_width), lineOf(line_bytes), agg(num_sites)
{
    VCB_ASSERT(warp_width > 0 && line_bytes > 0, "bad sampler params");
    occCount.assign(static_cast<size_t>(numSites) * localCount, 0);
    slotOf.assign(static_cast<size_t>(numSites) * occCap * numWarps, -1);
}

void
CoalesceSampler::beginWorkgroup()
{
    std::fill(occCount.begin(), occCount.end(), 0);
    for (size_t slot = 0; slot < touched.size(); ++slot) {
        linePool[slot].clear();
        slotOf[touched[slot]] = -1;
    }
    touched.clear();
}

int32_t
CoalesceSampler::newSlot(uint32_t key)
{
    const auto slot = static_cast<int32_t>(touched.size());
    slotOf[key] = slot;
    touched.push_back(key);
    if (linePool.size() < touched.size())
        linePool.resize(touched.size());
    return slot;
}

void
CoalesceSampler::endWorkgroup()
{
    for (size_t slot = 0; slot < touched.size(); ++slot) {
        uint32_t key = touched[slot];
        uint32_t site = key / (occCap * numWarps);
        agg[site].transactions += linePool[slot].size();
        linePool[slot].clear(); // capacity reused across workgroups
        slotOf[key] = -1;
    }
    touched.clear();
    std::fill(occCount.begin(), occCount.end(), 0);
}

double
CoalesceSampler::ratioFor(uint32_t site) const
{
    VCB_ASSERT(site < numSites, "ratioFor out of range");
    const SiteAgg &a = agg[site];
    if (a.accesses == 0)
        return 1.0;
    return static_cast<double>(a.transactions) /
           static_cast<double>(a.accesses);
}

bool
CoalesceSampler::sampled(uint32_t site) const
{
    VCB_ASSERT(site < numSites, "sampled out of range");
    return agg[site].accesses != 0;
}

} // namespace vcb::sim
