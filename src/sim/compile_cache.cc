#include "sim/compile_cache.h"

#include <algorithm>
#include <atomic>

#include "sim/device_file.h"
#include "sim/kernel.h"

namespace vcb::sim {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h = kFnvOffset)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** compileKernel consults the global instance (setGlobalEnabled). */
std::atomic<bool> g_cacheEnabled{true};

} // namespace

uint64_t
hashModule(const spirv::Module &m)
{
    std::vector<uint32_t> words = m.serialize();
    return fnv1a(words.data(), words.size() * sizeof(uint32_t));
}

uint64_t
deviceFingerprint(const DeviceSpec &dev)
{
    // Table-driven field hash: equal iff serializeDevice() text is
    // equal, but with no text formatting on the per-compile hot path.
    return hashDevice(dev);
}

CompileCacheKey
makeCompileCacheKey(const spirv::Module &m, const DeviceSpec &dev,
                    Api api)
{
    CompileCacheKey key;
    key.moduleHash = hashModule(m);
    key.deviceFp = deviceFingerprint(dev);
    const LowerOptions opt = compileLowerOptions();
    uint32_t cfg = static_cast<uint32_t>(api);
    cfg |= (opt.fusePairs ? 1u : 0u) << 2;
    cfg |= (opt.fuseSuperops ? 1u : 0u) << 3;
    key.config = cfg;
    return key;
}

size_t
CompileCache::Shard::KeyHash::operator()(const CompileCacheKey &k) const
{
    uint64_t h = kFnvOffset;
    h = fnv1a(&k.moduleHash, sizeof(k.moduleHash), h);
    h = fnv1a(&k.deviceFp, sizeof(k.deviceFp), h);
    h = fnv1a(&k.config, sizeof(k.config), h);
    return static_cast<size_t>(h);
}

CompileCache::CompileCache(size_t capacity, size_t shard_count)
    : shards(shard_count ? shard_count : 1),
      totalCapacity(capacity ? capacity : 1)
{
    perShardCapacity =
        std::max<size_t>(1, totalCapacity / shards.size());
}

CompileCache &
CompileCache::global()
{
    static CompileCache cache;
    return cache;
}

bool
CompileCache::globalEnabled()
{
    return g_cacheEnabled.load(std::memory_order_relaxed);
}

void
CompileCache::setGlobalEnabled(int enabled)
{
    // -1 (back to the default) and 1 both mean on.
    g_cacheEnabled.store(enabled != 0, std::memory_order_relaxed);
}

CompileCache::Shard &
CompileCache::shardFor(const CompileCacheKey &key)
{
    return shards[Shard::KeyHash{}(key) % shards.size()];
}

std::unique_ptr<CompiledKernel>
CompileCache::lookup(const CompileCacheKey &key)
{
    Shard &shard = shardFor(key);
    std::shared_ptr<const CompiledKernel> found;
    {
        std::lock_guard<std::mutex> lk(shard.mtx);
        auto it = shard.index.find(key);
        if (it != shard.index.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            found = it->second->kernel;
        }
    }
    {
        std::lock_guard<std::mutex> lk(statsMtx);
        if (found)
            ++counters.hits;
        else
            ++counters.misses;
    }
    if (!found)
        return nullptr;
    // Copy the metadata, share the program: CompiledKernel::micro is
    // an immutable shared_ptr, so this copy aliases the cached
    // micro-op stream instead of duplicating it.  Callers own their
    // kernel and may re-lower it — lowerKernel publishes a fresh
    // program into the copy, never mutating the shared one.
    return std::make_unique<CompiledKernel>(*found);
}

void
CompileCache::insert(const CompileCacheKey &key, const CompiledKernel &k)
{
    Shard &shard = shardFor(key);
    uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lk(shard.mtx);
        auto it = shard.index.find(key);
        if (it != shard.index.end()) {
            // Refresh in place (identical content by construction).
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            it->second->kernel =
                std::make_shared<const CompiledKernel>(k);
        } else {
            shard.lru.push_front(
                Entry{key, std::make_shared<const CompiledKernel>(k)});
            shard.index[key] = shard.lru.begin();
            while (shard.lru.size() > perShardCapacity) {
                shard.index.erase(shard.lru.back().key);
                shard.lru.pop_back();
                ++evicted;
            }
        }
    }
    {
        std::lock_guard<std::mutex> lk(statsMtx);
        ++counters.insertions;
        counters.evictions += evicted;
    }
}

void
CompileCache::recordCompileCpu(uint64_t ns)
{
    compileCalls.fetch_add(1, std::memory_order_relaxed);
    compileCpuNs.fetch_add(ns, std::memory_order_relaxed);
}

CompileCacheStats
CompileCache::stats() const
{
    CompileCacheStats out;
    {
        std::lock_guard<std::mutex> lk(statsMtx);
        out = counters;
    }
    uint64_t entries = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lk(shard.mtx);
        entries += shard.lru.size();
    }
    out.entries = entries;
    out.compileCalls = compileCalls.load(std::memory_order_relaxed);
    out.compileCpuNs = compileCpuNs.load(std::memory_order_relaxed);
    return out;
}

void
CompileCache::clear()
{
    for (Shard &shard : shards) {
        std::lock_guard<std::mutex> lk(shard.mtx);
        shard.index.clear();
        shard.lru.clear();
    }
    compileCalls.store(0, std::memory_order_relaxed);
    compileCpuNs.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(statsMtx);
    counters = CompileCacheStats{};
}

} // namespace vcb::sim
