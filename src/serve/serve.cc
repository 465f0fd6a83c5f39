#include "serve/serve.h"

#include <chrono>
#include <cstdio>
#include <future>

#include "common/logging.h"
#include "common/strutil.h"
#include "sim/compile_cache.h"
#include "suite/benchmark.h"

namespace vcb::serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Non-fatal suite::byName. */
const suite::Benchmark *
findBench(const std::string &name)
{
    std::string needle = toLower(name);
    for (const suite::Benchmark *b : suite::registry())
        if (b->name() == needle)
            return b;
    return nullptr;
}

bool
parseApiName(const std::string &s, sim::Api *out)
{
    std::string l = toLower(s);
    if (l == "vulkan" || l == "vk")
        *out = sim::Api::Vulkan;
    else if (l == "opencl" || l == "cl")
        *out = sim::Api::OpenCl;
    else if (l == "cuda" || l == "cu")
        *out = sim::Api::Cuda;
    else
        return false;
    return true;
}

bool
parseStrategyName(const std::string &s, suite::SubmitStrategy *out)
{
    for (int i = 0; i < suite::submitStrategyCount; ++i) {
        auto strat = (suite::SubmitStrategy)i;
        if (s == suite::strategyName(strat)) {
            *out = strat;
            return true;
        }
    }
    return false;
}

Response
reject(const Request &req, unsigned session, std::string why)
{
    Response r;
    r.type = "result";
    r.id = req.id;
    r.ok = false;
    r.error = std::move(why);
    r.session = session;
    return r;
}

} // namespace

uint64_t
hashHostArrays(const suite::HostArrays &host)
{
    uint64_t h = kFnvOffset;
    uint64_t n = host.size();
    h = fnv1a(&n, sizeof(n), h);
    for (const auto &arr : host) {
        uint64_t len = arr.size();
        h = fnv1a(&len, sizeof(len), h);
        h = fnv1a(arr.data(), arr.size() * sizeof(uint32_t), h);
    }
    return h;
}

Response
executeRequest(const Request &req, unsigned session)
{
    const suite::Benchmark *bench = findBench(req.bench);
    if (!bench)
        return reject(req, session,
                      strprintf("unknown bench '%s'",
                                req.bench.c_str()));

    std::string why;
    const sim::DeviceSpec *dev = sim::findDevice(req.device, &why);
    if (!dev)
        return reject(req, session, why);

    sim::Api api;
    if (!parseApiName(req.api, &api))
        return reject(req, session,
                      strprintf("unknown API '%s'", req.api.c_str()));

    auto sizes = bench->sizesFor(*dev);
    if (sizes.empty())
        return reject(req, session,
                      strprintf("%s has no sizes for %s: %s",
                                bench->name().c_str(),
                                dev->name.c_str(),
                                bench->mobileSkipReason(*dev).c_str()));
    suite::SizeConfig cfg;
    if (!req.sizeLabel.empty()) {
        bool found = false;
        for (const auto &s : sizes)
            if (s.label == req.sizeLabel) {
                cfg = s;
                found = true;
                break;
            }
        if (!found)
            return reject(req, session,
                          strprintf("no size labelled '%s' for %s on "
                                    "%s",
                                    req.sizeLabel.c_str(),
                                    bench->name().c_str(),
                                    dev->name.c_str()));
    } else {
        if (req.sizeIdx < 0 || (size_t)req.sizeIdx >= sizes.size())
            return reject(req, session,
                          strprintf("size index %d out of range "
                                    "(%zu sizes)",
                                    req.sizeIdx, sizes.size()));
        cfg = sizes[req.sizeIdx];
    }

    suite::Workload w = bench->workload(cfg);

    suite::WorkloadOptions opts;
    opts.queueCount = req.queues;
    if (!req.strategy.empty() && req.strategy != "default") {
        suite::SubmitStrategy strat;
        if (!parseStrategyName(req.strategy, &strat))
            return reject(req, session,
                          strprintf("unknown strategy '%s'",
                                    req.strategy.c_str()));
        if (!suite::strategyApplicable(w, strat))
            return reject(req, session,
                          strprintf("strategy '%s' is not applicable "
                                    "to %s",
                                    req.strategy.c_str(),
                                    bench->name().c_str()));
        opts.strategy = strat;
    }

    suite::HostArrays host;
    suite::RunResult res = suite::runWorkload(w, *dev, api, opts, &host);

    Response r;
    r.type = "result";
    r.id = req.id;
    r.session = session;
    if (!res.ok) {
        r.ok = false;
        r.error = res.skipReason;
        return r;
    }
    r.ok = true;
    r.bench = bench->name();
    r.device = dev->name;
    r.api = sim::apiName(api);
    r.strategy = res.strategy;
    r.size = cfg.label;
    r.kernelRegionNs = res.kernelRegionNs;
    r.totalNs = res.totalNs;
    r.launches = res.launches;
    r.validated = res.validated;
    if (!res.validated && r.error.empty())
        r.error = res.validationError;
    r.resultHash = hashHostArrays(host);
    return r;
}

// ---------------------------------------------------------------------------
// ServeBroker
// ---------------------------------------------------------------------------

ServeBroker::ServeBroker(BrokerConfig cfg)
    : pool_(cfg.sessions, std::move(cfg.devices))
{
}

ServeBroker::~ServeBroker() = default;

void
ServeBroker::submit(Request req, ResponseFn done)
{
    ++metrics_.accepted;
    pool_.submit([this, req = std::move(req),
                  done = std::move(done)](unsigned session) {
        auto t0 = std::chrono::steady_clock::now();
        Response r = executeRequest(req, session);
        r.serviceNs = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        metrics_.latency.record(r.serviceNs);
        if (r.ok)
            ++metrics_.completed;
        else
            ++metrics_.errors;
        if (done)
            done(r);
    });
}

Response
ServeBroker::submitSync(const Request &req)
{
    std::promise<Response> prom;
    std::future<Response> fut = prom.get_future();
    submit(req, [&prom](const Response &r) { prom.set_value(r); });
    return fut.get();
}

void
ServeBroker::drain()
{
    pool_.drain();
}

std::string
ServeBroker::statsLine(const std::string &id) const
{
    LatencyRecorder::Snapshot lat = metrics_.latency.snapshot();
    sim::CompileCacheStats cache = sim::CompileCache::global().stats();

    Response r;
    r.type = "stats";
    r.id = id;
    r.ok = true;
    auto num = [](double v) { return strprintf("%.1f", v); };
    auto cnt = [](uint64_t v) {
        return strprintf("%llu", (unsigned long long)v);
    };
    r.extra = {
        {"sessions", cnt(pool_.size())},
        {"accepted", cnt(metrics_.accepted.load())},
        {"completed", cnt(metrics_.completed.load())},
        {"errors", cnt(metrics_.errors.load())},
        {"rejected", cnt(metrics_.rejected.load())},
        {"latency_count", cnt(lat.count)},
        {"latency_mean_ns", num(lat.meanNs)},
        {"latency_p50_ns", num(lat.p50Ns)},
        {"latency_p95_ns", num(lat.p95Ns)},
        {"latency_p99_ns", num(lat.p99Ns)},
        {"throughput_rps", strprintf("%.3f", metrics_.throughputRps())},
        {"cache_enabled",
         sim::CompileCache::globalEnabled() ? "true" : "false"},
        {"cache_hits", cnt(cache.hits)},
        {"cache_misses", cnt(cache.misses)},
        {"cache_insertions", cnt(cache.insertions)},
        {"cache_evictions", cnt(cache.evictions)},
        {"cache_entries", cnt(cache.entries)},
        {"cache_hit_rate", strprintf("%.4f", cache.hitRate())},
        {"compile_calls", cnt(cache.compileCalls)},
        {"compile_cpu_ns", cnt(cache.compileCpuNs)},
    };
    return serializeResponse(r);
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

namespace {

int
checkProtocol()
{
    int failures = 0;
    auto expectOk = [&](const std::string &line) {
        Request req;
        std::string err;
        if (!parseRequestLine(line, &req, &err)) {
            std::fprintf(stderr,
                         "self-test: expected accept, got '%s': %s\n",
                         err.c_str(), line.c_str());
            ++failures;
        }
    };
    auto expectReject = [&](const std::string &line) {
        Request req;
        std::string err;
        if (parseRequestLine(line, &req, &err)) {
            std::fprintf(stderr,
                         "self-test: expected reject: %s\n",
                         line.c_str());
            ++failures;
        }
    };
    expectOk("{\"id\": \"a\", \"bench\": \"bfs\"}");
    expectOk("{\"bench\": \"nw\", \"size\": 1, \"api\": \"cl\","
             " \"strategy\": \"batched\", \"queues\": 2}");
    expectOk("{\"cmd\": \"stats\", \"id\": \"s\"}");
    expectOk("{\"cmd\": \"cache\", \"enabled\": false}");
    expectReject("not json");
    expectReject("{\"bench\": \"bfs\"} trailing");
    expectReject("{\"bench\": \"bfs\", \"bogus\": 1}");
    expectReject("{\"bench\": {\"nested\": true}}");
    expectReject("{\"bench\": \"bfs\", \"size\": [0]}");
    expectReject("{\"bench\": \"bfs\", \"bench\": \"nw\"}");
    expectReject("{\"id\": \"x\"}");
    expectReject("{\"cmd\": \"reboot\"}");
    expectReject("{\"bench\": \"bfs\", \"size\": -1}");
    expectReject("{\"bench\": null}");
    return failures;
}

} // namespace

int
runSelfTest()
{
    int failures = checkProtocol();

    // A small cross-API mix (size 0 keeps it fast), each entry twice
    // so the broker run exercises the compile cache.
    std::vector<Request> mix;
    auto add = [&](const char *bench, const char *api,
                   const char *device) {
        Request r;
        r.bench = bench;
        r.api = api;
        r.device = device;
        mix.push_back(r);
    };
    add("bfs", "vulkan", "gtx1050ti");
    add("pathfinder", "opencl", "gtx1050ti");
    add("hotspot", "cuda", "gtx1050ti");
    add("nw", "vulkan", "rx560");
    for (size_t i = 0, n = mix.size(); i < n; ++i)
        mix.push_back(mix[i]);
    for (size_t i = 0; i < mix.size(); ++i)
        mix[i].id = strprintf("st%zu", i);

    // Serial golden pass on this thread.
    std::vector<Response> serial;
    for (const Request &req : mix)
        serial.push_back(executeRequest(req));

    // Concurrent pass through a multi-session broker.
    std::vector<Response> served(mix.size());
    {
        ServeBroker broker(BrokerConfig{3, {}});
        for (size_t i = 0; i < mix.size(); ++i)
            broker.submit(mix[i], [&served, i](const Response &r) {
                served[i] = r;
            });
        broker.drain();
    }

    for (size_t i = 0; i < mix.size(); ++i) {
        const Response &a = serial[i];
        const Response &b = served[i];
        if (!a.ok || !a.validated) {
            std::fprintf(stderr,
                         "self-test: serial %s failed: %s\n",
                         mix[i].id.c_str(), a.error.c_str());
            ++failures;
            continue;
        }
        if (!b.ok || !b.validated) {
            std::fprintf(stderr,
                         "self-test: served %s failed: %s\n",
                         mix[i].id.c_str(), b.error.c_str());
            ++failures;
            continue;
        }
        if (a.resultHash != b.resultHash ||
            a.kernelRegionNs != b.kernelRegionNs ||
            a.launches != b.launches) {
            std::fprintf(stderr,
                         "self-test: %s diverged: serial "
                         "hash=%016llx ns=%.1f served hash=%016llx "
                         "ns=%.1f\n",
                         mix[i].id.c_str(),
                         (unsigned long long)a.resultHash,
                         a.kernelRegionNs,
                         (unsigned long long)b.resultHash,
                         b.kernelRegionNs);
            ++failures;
        }
    }

    if (failures == 0)
        std::fprintf(stderr,
                     "self-test: %zu served requests bit-identical to "
                     "serial golden path\n",
                     mix.size());
    return failures;
}

} // namespace vcb::serve
