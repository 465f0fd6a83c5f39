/** @file Serve layer: wire-protocol accept/reject, compile-cache
 *  keying/eviction/immutability, nearest-rank latency percentiles,
 *  concurrent-client bit-identity against the serial golden path,
 *  per-session device-registry isolation and graceful drain. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "serve/serve.h"
#include "sim/compile_cache.h"
#include "sim/device_file.h"
#include "sim/kernel.h"
#include "spirv/builder.h"

namespace vcb::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

Request
parseOk(const std::string &line)
{
    Request req;
    std::string err;
    EXPECT_TRUE(parseRequestLine(line, &req, &err)) << line << ": "
                                                    << err;
    return req;
}

std::string
parseErr(const std::string &line)
{
    Request req;
    std::string err;
    EXPECT_FALSE(parseRequestLine(line, &req, &err)) << line;
    return err;
}

TEST(Protocol, RunRequestFieldsDecode)
{
    Request r = parseOk(
        "{\"id\": \"r1\", \"bench\": \"bfs\", \"size\": 2, "
        "\"api\": \"cl\", \"device\": \"rx560\", "
        "\"strategy\": \"batched\", \"queues\": 3}");
    EXPECT_EQ(r.kind, Request::Kind::Run);
    EXPECT_EQ(r.id, "r1");
    EXPECT_EQ(r.bench, "bfs");
    EXPECT_EQ(r.sizeIdx, 2);
    EXPECT_EQ(r.api, "cl");
    EXPECT_EQ(r.device, "rx560");
    EXPECT_EQ(r.strategy, "batched");
    EXPECT_EQ(r.queues, 3u);

    // Size as a label string instead of an index.
    Request lbl =
        parseOk("{\"bench\": \"nw\", \"size\": \"64K\"}");
    EXPECT_EQ(lbl.sizeLabel, "64K");
    EXPECT_EQ(lbl.sizeIdx, 0);

    // Defaults when omitted.
    Request d = parseOk("{\"bench\": \"lud\"}");
    EXPECT_EQ(d.device, "gtx1050ti");
    EXPECT_EQ(d.api, "vulkan");
    EXPECT_EQ(d.queues, 0u);
}

TEST(Protocol, ControlCommandsDecode)
{
    EXPECT_EQ(parseOk("{\"cmd\": \"stats\"}").kind,
              Request::Kind::Stats);
    EXPECT_EQ(parseOk("{\"cmd\": \"drain\", \"id\": \"d\"}").kind,
              Request::Kind::Drain);
    EXPECT_EQ(parseOk("{\"cmd\": \"shutdown\"}").kind,
              Request::Kind::Shutdown);
    EXPECT_EQ(parseOk("{\"cmd\": \"cache_clear\"}").kind,
              Request::Kind::CacheClear);
    Request c = parseOk("{\"cmd\": \"cache\", \"enabled\": false}");
    EXPECT_EQ(c.kind, Request::Kind::Cache);
    EXPECT_FALSE(c.cacheEnabled);
}

TEST(Protocol, MalformedLinesAreRejectedWithReasons)
{
    EXPECT_NE(parseErr("").find("expected '{'"), std::string::npos);
    EXPECT_NE(parseErr("not json").find("expected '{'"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": \"bfs\"} x")
                  .find("trailing"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": \"bfs\", \"typo\": 1}")
                  .find("unknown key"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": {\"nested\": 1}}")
                  .find("nested"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": [\"bfs\"]}").find("nested"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": null}").find("null"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": \"a\", \"bench\": \"b\"}")
                  .find("duplicate"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"id\": \"x\"}").find("missing 'bench'"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"cmd\": \"reboot\"}")
                  .find("unknown command"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": \"bfs\", \"size\": -1}")
                  .find("integer"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"bench\": \"bfs\", \"size\": 1.5}")
                  .find("integer"),
              std::string::npos);
    EXPECT_NE(parseErr("{\"cmd\": \"stats\", \"bench\": \"bfs\"}")
                  .find("unknown key"),
              std::string::npos);
    // Unterminated string and bad escapes.
    EXPECT_FALSE(parseErr("{\"bench\": \"bfs").empty());
    EXPECT_FALSE(parseErr("{\"bench\": \"\\q\"}").empty());
}

TEST(Protocol, ResponseRoundTripsThroughFlatParser)
{
    Response r;
    r.type = "result";
    r.id = "with \"quotes\" and\nnewline";
    r.ok = true;
    r.bench = "bfs";
    r.device = "GTX";
    r.api = "Vulkan";
    r.strategy = "batched";
    r.size = "64K";
    r.kernelRegionNs = 123.5;
    r.launches = 7;
    r.validated = true;
    r.resultHash = 0xdeadbeefcafe1234ull;
    std::string line = serializeResponse(r);

    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseFlatObject(line, &obj, &err)) << line << ": "
                                                   << err;
    auto get = [&](const char *key) -> const JsonField & {
        for (const auto &kv : obj)
            if (kv.first == key)
                return kv.second;
        ADD_FAILURE() << "missing key " << key;
        static JsonField none;
        return none;
    };
    EXPECT_EQ(get("id").str, r.id);
    EXPECT_TRUE(get("ok").b);
    EXPECT_EQ(get("result_hash").str, "deadbeefcafe1234");
    EXPECT_EQ(get("launches").num, 7);
}

// ---------------------------------------------------------------------------
// Compile cache: keying, eviction, immutability
// ---------------------------------------------------------------------------

spirv::Module
tinyKernel(const std::string &name, uint32_t imm)
{
    spirv::Builder b(name, 32);
    b.bindStorage(0, spirv::ElemType::U32);
    auto gid = b.globalIdX();
    b.stBuf(0, gid, b.iadd(gid, b.constU(imm)));
    b.ret();
    return b.finish();
}

sim::CompileCacheKey
keyFor(const spirv::Module &m)
{
    return sim::makeCompileCacheKey(m, sim::gtx1050ti(),
                                    sim::Api::Vulkan);
}

std::unique_ptr<sim::CompiledKernel>
compile(const spirv::Module &m)
{
    std::string err;
    auto k = sim::compileKernel(m, sim::gtx1050ti(), sim::Api::Vulkan,
                                &err);
    EXPECT_NE(k, nullptr) << err;
    return k;
}

TEST(CompileCacheUnit, ContentKeyedLookupAndLru)
{
    // Single shard, two entries: deterministic LRU.
    sim::CompileCache cache(2, 1);
    auto m1 = tinyKernel("cc_k1", 1);
    auto m2 = tinyKernel("cc_k2", 2);
    auto m3 = tinyKernel("cc_k3", 3);
    auto k1 = compile(m1), k2 = compile(m2), k3 = compile(m3);

    EXPECT_EQ(cache.lookup(keyFor(m1)), nullptr); // cold miss
    cache.insert(keyFor(m1), *k1);
    cache.insert(keyFor(m2), *k2);

    // Refresh k1, then insert k3: the LRU victim must be k2.
    ASSERT_NE(cache.lookup(keyFor(m1)), nullptr);
    cache.insert(keyFor(m3), *k3);
    EXPECT_NE(cache.lookup(keyFor(m1)), nullptr);
    EXPECT_EQ(cache.lookup(keyFor(m2)), nullptr);
    EXPECT_NE(cache.lookup(keyFor(m3)), nullptr);

    sim::CompileCacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 2u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.lookup(keyFor(m1)), nullptr);
}

TEST(CompileCacheUnit, HashComponentCollisionsDoNotAlias)
{
    // Keys agreeing in one 64-bit component but differing in another
    // are distinct entries: equality compares the whole key, so even
    // a real FNV collision in moduleHash cannot alias entries from
    // different devices/configs.
    sim::CompileCache cache(8, 1);
    auto m1 = tinyKernel("cc_col1", 1);
    auto m2 = tinyKernel("cc_col2", 2);
    auto k1 = compile(m1), k2 = compile(m2);

    sim::CompileCacheKey a = keyFor(m1);
    sim::CompileCacheKey b = a;
    b.deviceFp ^= 0x1234; // same moduleHash+config, "other device"
    sim::CompileCacheKey c = a;
    c.config ^= 1; // same hashes, different lowering config

    cache.insert(a, *k1);
    cache.insert(b, *k2);
    EXPECT_EQ(cache.stats().entries, 2u);

    auto got_a = cache.lookup(a);
    auto got_b = cache.lookup(b);
    ASSERT_NE(got_a, nullptr);
    ASSERT_NE(got_b, nullptr);
    EXPECT_EQ(got_a->module.name, "cc_col1");
    EXPECT_EQ(got_b->module.name, "cc_col2");
    EXPECT_EQ(cache.lookup(c), nullptr);
}

TEST(CompileCacheUnit, NearIdenticalDevicesGetDistinctFingerprints)
{
    sim::DeviceSpec dev = sim::gtx1050ti();
    uint64_t base = sim::deviceFingerprint(dev);

    sim::DeviceSpec tweaked = dev;
    tweaked.apis[(int)sim::Api::Vulkan].codeQuality *= 1.0000001;
    EXPECT_NE(sim::deviceFingerprint(tweaked), base);

    sim::DeviceSpec renamed = dev;
    renamed.name += "-b";
    EXPECT_NE(sim::deviceFingerprint(renamed), base);

    // Fingerprint is content-addressed: a copy is identical.
    sim::DeviceSpec copy = dev;
    EXPECT_EQ(sim::deviceFingerprint(copy), base);
}

TEST(CompileCacheUnit, LookupsShareProgramButNeverAlias)
{
    sim::CompileCache cache(4, 1);
    auto m = tinyKernel("cc_iso", 9);
    auto k = compile(m);
    cache.insert(keyFor(m), *k);

    auto first = cache.lookup(keyFor(m));
    auto second = cache.lookup(keyFor(m));
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);

    // Hits share one immutable program: no per-hit deep copy of the
    // micro-op stream.
    EXPECT_EQ(first->micro.get(), second->micro.get());
    size_t ops = first->micro->ops.size();

    // Re-lowering a hit swaps in a fresh program (copy-on-write); the
    // program other clients hold is untouched.
    const sim::MicroKernel *shared_prog = second->micro.get();
    sim::lowerKernel(*first, sim::LowerOptions::noFusion());
    EXPECT_NE(first->micro.get(), shared_prog);
    EXPECT_EQ(second->micro.get(), shared_prog);
    EXPECT_EQ(second->micro->ops.size(), ops);

    // Scalar fields are still per-lookup copies.
    first->codeQualityEff = -1;
    auto third = cache.lookup(keyFor(m));
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->codeQualityEff, k->codeQualityEff);
}

// ---------------------------------------------------------------------------
// Latency percentiles
// ---------------------------------------------------------------------------

/** Nearest-rank: the q-th percentile of n samples is the
 *  ceil(q * n)-th smallest. */
TEST(LatencyRecorder, NearestRankPercentiles)
{
    LatencyRecorder hundred;
    for (int v = 100; v >= 1; --v)
        hundred.record(v);
    LatencyRecorder::Snapshot s = hundred.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.p50Ns, 50);
    EXPECT_EQ(s.p95Ns, 95);
    EXPECT_EQ(s.p99Ns, 99);

    LatencyRecorder two;
    two.record(2);
    two.record(1);
    EXPECT_EQ(two.snapshot().p50Ns, 1);

    LatencyRecorder one;
    one.record(7);
    s = one.snapshot();
    EXPECT_EQ(s.p50Ns, 7);
    EXPECT_EQ(s.p95Ns, 7);
    EXPECT_EQ(s.p99Ns, 7);
}

// ---------------------------------------------------------------------------
// Broker: concurrent bit-identity, isolation, drain
// ---------------------------------------------------------------------------

std::vector<Request>
smallMix()
{
    std::vector<Request> mix;
    auto add = [&](const char *bench, const char *api,
                   const char *device) {
        Request r;
        r.bench = bench;
        r.api = api;
        r.device = device;
        r.id = "m" + std::to_string(mix.size());
        mix.push_back(r);
    };
    add("bfs", "vulkan", "gtx1050ti");
    add("pathfinder", "opencl", "gtx1050ti");
    add("hotspot", "cuda", "gtx1050ti");
    add("nw", "vulkan", "rx560");
    add("bfs", "opencl", "gtx1050ti");
    add("pathfinder", "vulkan", "gtx1050ti");
    add("nw", "opencl", "rx560");
    add("hotspot", "vulkan", "gtx1050ti");
    return mix;
}

TEST(ServeBrokerTest, ConcurrentClientsMatchSerialBaseline)
{
    std::vector<Request> mix = smallMix();

    // Serial golden baseline on this thread.
    std::vector<Response> serial;
    for (const Request &r : mix)
        serial.push_back(executeRequest(r));

    // Four concurrent closed-loop clients against a 3-session broker.
    ServeBroker broker(BrokerConfig{3, {}});
    std::vector<Response> served(mix.size());
    std::atomic<size_t> cursor{0};
    auto client = [&] {
        for (;;) {
            size_t i = cursor.fetch_add(1);
            if (i >= mix.size())
                return;
            served[i] = broker.submitSync(mix[i]);
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
        clients.emplace_back(client);
    for (auto &t : clients)
        t.join();

    for (size_t i = 0; i < mix.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << mix[i].id << ": "
                                  << serial[i].error;
        ASSERT_TRUE(served[i].ok) << mix[i].id << ": "
                                  << served[i].error;
        EXPECT_TRUE(served[i].validated) << mix[i].id;
        EXPECT_EQ(served[i].resultHash, serial[i].resultHash)
            << mix[i].id;
        EXPECT_EQ(served[i].kernelRegionNs, serial[i].kernelRegionNs)
            << mix[i].id;
        EXPECT_EQ(served[i].launches, serial[i].launches) << mix[i].id;
    }
    EXPECT_EQ(broker.metrics().completed.load(), mix.size());
    EXPECT_EQ(broker.metrics().errors.load(), 0u);
    EXPECT_EQ(broker.metrics().latency.snapshot().count, mix.size());
}

TEST(ServeBrokerTest, RegistriesAreIsolatedPerSession)
{
    // Two one-session brokers with disjoint single-device registries
    // built from renamed copies of the paper parts.
    sim::DeviceSpec alpha = sim::gtx1050ti();
    alpha.name = "alpha-only";
    sim::DeviceSpec beta = sim::rx560();
    beta.name = "beta-only";

    ServeBroker sa(BrokerConfig{1, {alpha}});
    ServeBroker sb(BrokerConfig{1, {beta}});

    auto runOn = [](ServeBroker &s, const char *device) {
        Request r;
        r.bench = "bfs";
        r.api = "vulkan";
        r.device = device;
        return s.submitSync(r);
    };

    // Each session resolves its own device...
    Response ra = runOn(sa, "alpha");
    ASSERT_TRUE(ra.ok) << ra.error;
    EXPECT_EQ(ra.device, "alpha-only");
    Response rb = runOn(sb, "beta");
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_EQ(rb.device, "beta-only");

    // ...and can never see the sibling's.  A name that matches the
    // compiled-in registry is invisible too: the override replaces
    // the registry, not augments it.
    EXPECT_FALSE(runOn(sa, "beta").ok);
    EXPECT_FALSE(runOn(sb, "alpha").ok);
    EXPECT_FALSE(runOn(sa, "rx560").ok);

    // The test's own thread keeps the compiled-in registry: session
    // overrides are thread-scoped, not process-global.
    EXPECT_EQ(sim::activeDeviceRegistry().size(),
              sim::deviceRegistry().size());

    // Same request, same simulated result on both sessions' distinct
    // hardware?  No: the specs differ, so results may differ — but
    // the SAME spec under a different session name must reproduce
    // the compiled-in device's result exactly.
    Request ref;
    ref.bench = "bfs";
    ref.api = "vulkan";
    ref.device = "gtx1050ti";
    Response direct = executeRequest(ref);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(ra.resultHash, direct.resultHash);
    EXPECT_EQ(ra.kernelRegionNs, direct.kernelRegionNs);
}

/** A device name must pick one device: under the full spec directory
 *  "adreno" matches both Adreno parts and "" matches every part, so
 *  both requests are rejected with the candidates instead of running
 *  on whichever part the registry lists first. */
TEST(ServeSessionTest, RejectsEmptyAndAmbiguousDeviceNames)
{
    const char *dir = std::getenv("VCB_DEVICES_DIR");
    if (!dir)
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    sim::ScopedDeviceRegistry reg(sim::loadDeviceDir(dir));
    for (const char *device : {"adreno", ""}) {
        Request r;
        r.bench = "bfs";
        r.device = device;
        Response resp = executeRequest(r);
        EXPECT_FALSE(resp.ok) << "device '" << device << "'";
        EXPECT_NE(resp.error.find("ambiguous"), std::string::npos)
            << resp.error;
        EXPECT_NE(resp.error.find("Qualcomm Adreno 640"),
                  std::string::npos)
            << resp.error;
    }
}

TEST(ServeBrokerTest, DrainWaitsForEveryQueuedRequest)
{
    std::atomic<size_t> done{0};
    {
        ServeBroker broker(BrokerConfig{2, {}});
        Request r;
        r.bench = "bfs";
        r.api = "cuda";
        for (int i = 0; i < 5; ++i)
            broker.submit(r, [&done](const Response &resp) {
                EXPECT_TRUE(resp.ok) << resp.error;
                ++done;
            });
        broker.drain();
        EXPECT_EQ(done.load(), 5u);

        // Graceful shutdown: requests queued after the drain are
        // still answered before the destructor returns.
        for (int i = 0; i < 3; ++i)
            broker.submit(r, [&done](const Response &) { ++done; });
    }
    EXPECT_EQ(done.load(), 8u);
}

TEST(ServeBrokerTest, StatsLineIsFlatParseable)
{
    ServeBroker broker(BrokerConfig{2, {}});
    Request r;
    r.bench = "bfs";
    r.api = "cuda";
    Response resp = broker.submitSync(r);
    ASSERT_TRUE(resp.ok) << resp.error;

    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseFlatObject(broker.statsLine("s"), &obj, &err))
        << err;
    auto num = [&](const char *key) -> double {
        for (const auto &kv : obj)
            if (kv.first == key)
                return kv.second.num;
        ADD_FAILURE() << "missing " << key;
        return -1;
    };
    EXPECT_EQ(num("sessions"), 2);
    EXPECT_EQ(num("accepted"), 1);
    EXPECT_EQ(num("completed"), 1);
    EXPECT_EQ(num("latency_count"), 1);
    EXPECT_GT(num("latency_p50_ns"), 0);
}

} // namespace
} // namespace vcb::serve
