/**
 * @file
 * Content-addressed compile cache: (kernel source, lowering options,
 * device, API) -> driver-compiled kernel.
 *
 * Every front-end compile funnels through sim::compileKernel, which
 * validates the module, builds the memory-site table and lowers to the
 * micro-op executable (sim/microop.h) — by far the most expensive part
 * of serving a benchmark request.  The serve layer (src/serve/) replays
 * thousands of requests over a small set of kernels, so compileKernel
 * consults this cache first: a hit returns a copy of the previously
 * compiled artefact's metadata SHARING its immutable micro-op program
 * and skips validation, decode and lowering entirely.
 *
 * Keying is by content, never by identity:
 *
 *  - the kernel source, as an FNV-1a hash of the module's canonical
 *    binary serialization (spirv::Module::serialize — name, local
 *    size, bindings, push/shared sizes and the full code stream);
 *  - the lowering configuration (the two compileLowerOptions() bits);
 *  - the device, as an FNV-1a hash of its canonical spec-file text
 *    (sim/device_file.h serializeDevice — every architectural and
 *    driver-profile field, so two near-identical DeviceSpecs can never
 *    alias);
 *  - the API (the same module compiles differently per driver
 *    profile).
 *
 * The store is a sharded LRU: each shard owns a mutex, an LRU list and
 * an index, so concurrent serve sessions hit different shards without
 * contending.  Entries are immutable shared_ptrs; lookups copy the
 * metadata fields but share the micro-op program, which is itself an
 * immutable shared_ptr<const MicroKernel> (CompiledKernel::micro) —
 * the dominant allocation is never deep-copied per hit.  Callers that
 * re-lower a compiled kernel (the fused-vs-unfused tests) get a fresh
 * program published into their copy; the shared one is untouched, so
 * no caller can corrupt the cached artefact.
 *
 * Cache hits are observably invisible by construction — the result is
 * field-for-field identical to what a fresh compile would produce —
 * and tests/test_interpreter.cc enforces it (program bytes,
 * DispatchStats and kernelNs bit-identical across the full kernel
 * registry).
 */

#ifndef VCB_SIM_COMPILE_CACHE_H
#define VCB_SIM_COMPILE_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/device.h"
#include "sim/microop.h"
#include "spirv/module.h"

namespace vcb::sim {

struct CompiledKernel;

/** FNV-1a over the module's canonical binary serialization. */
uint64_t hashModule(const spirv::Module &m);

/** FNV-1a over the device's canonical spec-file text (every field of
 *  DeviceSpec and all three DriverProfiles). */
uint64_t deviceFingerprint(const DeviceSpec &dev);

/** A fully resolved cache key.  Equality compares every field, so a
 *  64-bit hash collision in one component still needs the others to
 *  match before an entry aliases. */
struct CompileCacheKey
{
    uint64_t moduleHash = 0;
    uint64_t deviceFp = 0;
    /** api | LowerOptions bits (see makeCompileCacheKey). */
    uint32_t config = 0;

    bool operator==(const CompileCacheKey &) const = default;
};

/** Key for one compileKernel invocation; the lowering options it will
 *  use (compileLowerOptions()) are folded in here. */
CompileCacheKey makeCompileCacheKey(const spirv::Module &m,
                                    const DeviceSpec &dev, Api api);

/** Monotonic cache counters (snapshot). */
struct CompileCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Current entry count across all shards. */
    uint64_t entries = 0;

    /** compileKernel invocations and their total thread-CPU cost,
     *  recorded whether or not the cache was consulted — the ablation
     *  measures the cache's latency win from the off/warm delta.
     *  Thread-CPU time, not wall time: under a saturated machine wall
     *  time mostly measures preemption. */
    uint64_t compileCalls = 0;
    uint64_t compileCpuNs = 0;

    double hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }
};

/** Thread-safe sharded-LRU store of compiled kernels. */
class CompileCache
{
  public:
    /**
     * @param capacity total entry budget (split evenly over shards,
     *        at least one entry per shard).
     * @param shards   lock shards; 1 gives a single deterministic LRU
     *        (unit tests), the global instance uses several.
     */
    explicit CompileCache(size_t capacity = 1024, size_t shards = 8);

    /** The process-wide instance compileKernel consults (1024
     *  entries). */
    static CompileCache &global();

    /** Whether compileKernel consults the global instance (on unless
     *  setGlobalEnabled(0)). */
    static bool globalEnabled();

    /** Switch the global gate on (1) / off (0), or back to the
     *  default, on (-1).  Used by vcb_load's cache phases, vcb_serve's
     *  `cache` request and tests. */
    static void setGlobalEnabled(int enabled);

    /** Deep copy of the cached artefact, or nullptr on miss.  A hit
     *  refreshes the entry's LRU position. */
    std::unique_ptr<CompiledKernel> lookup(const CompileCacheKey &key);

    /** Store a copy of `k` under `key`, evicting the shard's
     *  least-recently-used entry when over budget.  Re-inserting an
     *  existing key refreshes the entry. */
    void insert(const CompileCacheKey &key, const CompiledKernel &k);

    CompileCacheStats stats() const;

    /** Add one compileKernel invocation's thread-CPU cost to the
     *  counters (called by compileKernel on every path, hit or not). */
    void recordCompileCpu(uint64_t ns);

    /** Drop every entry and reset the counters. */
    void clear();

    size_t capacity() const { return totalCapacity; }

  private:
    struct Entry
    {
        CompileCacheKey key;
        std::shared_ptr<const CompiledKernel> kernel;
    };

    struct Shard
    {
        mutable std::mutex mtx;
        /** Front = most recently used. */
        std::list<Entry> lru;
        struct KeyHash
        {
            size_t operator()(const CompileCacheKey &k) const;
        };
        std::unordered_map<CompileCacheKey, std::list<Entry>::iterator,
                           KeyHash>
            index;
    };

    Shard &shardFor(const CompileCacheKey &key);

    std::vector<Shard> shards;
    size_t totalCapacity;
    size_t perShardCapacity;

    mutable std::mutex statsMtx;
    CompileCacheStats counters;

    std::atomic<uint64_t> compileCalls{0};
    std::atomic<uint64_t> compileCpuNs{0};
};

} // namespace vcb::sim

#endif // VCB_SIM_COMPILE_CACHE_H
