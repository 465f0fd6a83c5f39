/**
 * @file
 * vcb_load — request-stream load generator and compile-cache ablation.
 *
 * Replays a seeded deterministic mix of benchmark-run requests
 * against the serve layer and measures it three times:
 *
 *   cache_off   compile cache disabled (every request re-lowers),
 *   cache_cold  cache enabled from empty (first sight of each
 *               kernel x device x API misses, repeats hit),
 *   cache_warm  the same mix again over the populated cache.
 *
 * Each phase reports client-observed latency percentiles, throughput
 * and the phase's compile-cache hit/miss delta as one flat JSON line;
 * a final summary line carries the cross-phase verdicts.  The process
 * exits non-zero unless (a) every request's result hash is
 * bit-identical across all three phases — the cache must be
 * observably invisible — (b) the warm-phase hit rate exceeds 0.9, and
 * (c) thread-CPU time inside compileKernel drops from the off phase
 * to the warm phase (the cache's actual latency win, measured in CPU
 * time so a saturated machine cannot drown it in preemption noise).
 * tools/gen_bench_serve.sh snapshots the output as BENCH_serve.json;
 * CI runs it as a gate.
 *
 *   vcb_load [--requests N] [--clients C] [--sessions S] [--seed K]
 *            [--rate R] [--quick] [--devices DIR] [--serve-bin PATH]
 *            [--no-gate]
 *
 * By default the mix runs in-process through a serve::ServeBroker of
 * --sessions worker sessions — the same broker vcb_serve runs, minus
 * the wire format.  --serve-bin spawns the given vcb_serve binary and
 * drives it over its stdin/stdout pipe protocol instead — the same mix,
 * phases and gates, end to end through the wire format.  --rate R
 * switches from the closed loop (each of --clients clients waiting for
 * its response) to an open loop issuing R requests/second regardless
 * of completions.  On both transports latency counts from the instant
 * a request is sent; sending never blocks, so in the open loop that
 * instant is the request's scheduled slot up to sleep jitter, and
 * session lateness counts as queueing delay (no coordinated omission).
 *
 * Every phase line's rate_rps field reports the ACTUALLY ACHIEVED
 * offered rate (inter-issue rate over the phase), not the configured
 * target: in the closed loop it tracks throughput by construction, in
 * the open loop it converges on --rate R when issuance keeps up.
 */

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/strutil.h"
#include "serve/metrics.h"
#include "serve/serve.h"
#include "sim/compile_cache.h"
#include "sim/device_file.h"

using namespace vcb;

namespace {

void
usage()
{
    std::printf(
        "usage: vcb_load [--requests N] [--clients C] [--sessions S]\n"
        "                [--seed K] [--rate R] [--quick]\n"
        "                [--devices DIR] [--serve-bin PATH] "
        "[--no-gate]\n");
}

// ---------------------------------------------------------------------------
// Deterministic request mix
// ---------------------------------------------------------------------------

struct Combo
{
    const char *bench;
    const char *api;
    const char *device;
    const char *strategy;
};

/** Size-0 combos over the two desktop parts; every entry runs ok, so
 *  the cross-phase hash-identity check covers the full mix. */
const Combo kCombos[] = {
    {"bfs", "vulkan", "gtx1050ti", ""},
    {"bfs", "opencl", "gtx1050ti", ""},
    {"bfs", "cuda", "gtx1050ti", ""},
    {"pathfinder", "vulkan", "gtx1050ti", "batched"},
    {"pathfinder", "opencl", "gtx1050ti", ""},
    {"hotspot", "cuda", "gtx1050ti", ""},
    {"hotspot", "vulkan", "rx560", ""},
    {"nw", "vulkan", "rx560", "re-record"},
    {"nw", "opencl", "rx560", ""},
    {"lud", "vulkan", "gtx1050ti", ""},
    {"gaussian", "opencl", "rx560", ""},
    {"gaussian", "cuda", "gtx1050ti", ""},
};

uint64_t
xorshift64(uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

std::vector<serve::Request>
buildMix(size_t n, uint64_t seed)
{
    uint64_t state = seed ? seed : 1;
    std::vector<serve::Request> mix;
    mix.reserve(n);
    constexpr size_t combos = sizeof(kCombos) / sizeof(kCombos[0]);
    for (size_t i = 0; i < n; ++i) {
        const Combo &c = kCombos[xorshift64(state) % combos];
        serve::Request r;
        r.bench = c.bench;
        r.api = c.api;
        r.device = c.device;
        r.strategy = c.strategy;
        mix.push_back(r);
    }
    return mix;
}

// ---------------------------------------------------------------------------
// Clients: in-process broker, or a spawned vcb_serve over pipes
// ---------------------------------------------------------------------------

struct ResultRec
{
    bool ok = false;
    bool validated = false;
    std::string error;
    uint64_t hash = 0;
    /** Client-observed latency (queueing + service), ns. */
    double clientNs = 0;
};

class Client
{
  public:
    virtual ~Client() = default;
    virtual void send(const serve::Request &req,
                      std::function<void(const ResultRec &)> done) = 0;
    virtual void cacheEnable(bool on) = 0;
    virtual void cacheClear() = 0;
    virtual void cacheCounts(uint64_t *hits, uint64_t *misses,
                             uint64_t *compile_calls,
                             uint64_t *compile_cpu_ns) = 0;
    /** Block until every sent request has been answered. */
    virtual void drain() = 0;
};

/** Drives an in-process ServeBroker. */
class BrokerClient : public Client
{
  public:
    BrokerClient(unsigned sessions, std::vector<sim::DeviceSpec> devices)
        : broker(serve::BrokerConfig{sessions, std::move(devices)})
    {
    }

    void send(const serve::Request &req,
              std::function<void(const ResultRec &)> done) override
    {
        auto t0 = std::chrono::steady_clock::now();
        broker.submit(req, [t0, done = std::move(done)](
                               const serve::Response &r) {
            ResultRec rec;
            rec.ok = r.ok;
            rec.validated = r.validated;
            rec.error = r.error;
            rec.hash = r.resultHash;
            rec.clientNs = std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
            done(rec);
        });
    }

    void cacheEnable(bool on) override
    {
        sim::CompileCache::setGlobalEnabled(on ? 1 : 0);
    }
    void cacheClear() override { sim::CompileCache::global().clear(); }
    void cacheCounts(uint64_t *hits, uint64_t *misses,
                     uint64_t *compile_calls,
                     uint64_t *compile_cpu_ns) override
    {
        sim::CompileCacheStats s = sim::CompileCache::global().stats();
        *hits = s.hits;
        *misses = s.misses;
        *compile_calls = s.compileCalls;
        *compile_cpu_ns = s.compileCpuNs;
    }

    void drain() override { broker.drain(); }

  private:
    serve::ServeBroker broker;
};

/** Drives a spawned vcb_serve through its stdin/stdout NDJSON pipe. */
class PipeClient : public Client
{
  public:
    PipeClient(const std::string &bin, unsigned sessions,
               const std::string &devices_dir)
    {
        int to_child[2], from_child[2];
        if (pipe(to_child) != 0 || pipe(from_child) != 0)
            fatal("pipe: %s", std::strerror(errno));
        pid = fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            dup2(to_child[0], STDIN_FILENO);
            dup2(from_child[1], STDOUT_FILENO);
            close(to_child[0]);
            close(to_child[1]);
            close(from_child[0]);
            close(from_child[1]);
            std::string sess = strprintf("%u", sessions);
            if (devices_dir.empty())
                execl(bin.c_str(), bin.c_str(), "--sessions",
                      sess.c_str(), (char *)nullptr);
            else
                execl(bin.c_str(), bin.c_str(), "--sessions",
                      sess.c_str(), "--devices", devices_dir.c_str(),
                      (char *)nullptr);
            std::fprintf(stderr, "exec %s: %s\n", bin.c_str(),
                         std::strerror(errno));
            _exit(127);
        }
        close(to_child[0]);
        close(from_child[1]);
        in = fdopen(to_child[1], "w");
        out = fdopen(from_child[0], "r");
        if (!in || !out)
            fatal("fdopen failed");
        reader = std::thread([this] { readerLoop(); });
    }

    ~PipeClient() override
    {
        control("shutdown");
        {
            std::lock_guard<std::mutex> lk(mtx);
            std::fclose(in);
            in = nullptr;
        }
        if (reader.joinable())
            reader.join();
        std::fclose(out);
        int status = 0;
        waitpid(pid, &status, 0);
    }

    void send(const serve::Request &req,
              std::function<void(const ResultRec &)> done) override
    {
        std::string id = nextId();
        auto t0 = std::chrono::steady_clock::now();
        {
            std::unique_lock<std::mutex> lk(mtx);
            if (dead) {
                // The reader hit EOF and failed every outstanding
                // request; nothing is left to answer this one.
                lk.unlock();
                ResultRec rec;
                rec.error = "vcb_serve exited";
                done(rec);
                return;
            }
            pending[id] = [t0, done = std::move(done)](
                              const serve::JsonObject &obj) {
                ResultRec rec;
                rec.ok = boolField(obj, "ok");
                rec.validated = boolField(obj, "validated");
                rec.error = strField(obj, "error");
                rec.hash = std::strtoull(
                    strField(obj, "result_hash").c_str(), nullptr, 16);
                rec.clientNs =
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                done(rec);
            };
            writeLine(strprintf(
                "{\"id\": \"%s\", \"bench\": \"%s\", \"api\": \"%s\", "
                "\"device\": \"%s\"%s}",
                id.c_str(), req.bench.c_str(), req.api.c_str(),
                req.device.c_str(),
                req.strategy.empty()
                    ? ""
                    : strprintf(", \"strategy\": \"%s\"",
                                req.strategy.c_str())
                          .c_str()));
        }
    }

    void cacheEnable(bool on) override
    {
        controlExtra("cache", strprintf(", \"enabled\": %s",
                                        on ? "true" : "false"));
    }
    void cacheClear() override { control("cache_clear"); }
    void cacheCounts(uint64_t *hits, uint64_t *misses,
                     uint64_t *compile_calls,
                     uint64_t *compile_cpu_ns) override
    {
        serve::JsonObject obj = control("stats");
        *hits = (uint64_t)numField(obj, "cache_hits");
        *misses = (uint64_t)numField(obj, "cache_misses");
        *compile_calls = (uint64_t)numField(obj, "compile_calls");
        *compile_cpu_ns = (uint64_t)numField(obj, "compile_cpu_ns");
    }

    void drain() override { control("drain"); }

  private:
    static const serve::JsonField *
    field(const serve::JsonObject &obj, const char *key)
    {
        for (const auto &kv : obj)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }
    static bool boolField(const serve::JsonObject &obj, const char *k)
    {
        const serve::JsonField *f = field(obj, k);
        return f && f->kind == serve::JsonField::Kind::Bool && f->b;
    }
    static std::string strField(const serve::JsonObject &obj,
                                const char *k)
    {
        const serve::JsonField *f = field(obj, k);
        return f && f->kind == serve::JsonField::Kind::String ? f->str
                                                              : "";
    }
    static double numField(const serve::JsonObject &obj, const char *k)
    {
        const serve::JsonField *f = field(obj, k);
        return f && f->kind == serve::JsonField::Kind::Number ? f->num
                                                              : 0;
    }

    std::string nextId()
    {
        return strprintf("q%llu",
                         (unsigned long long)seq.fetch_add(1));
    }

    /** Caller holds mtx. */
    void writeLine(const std::string &line)
    {
        VCB_ASSERT(in, "serve pipe already closed");
        std::fprintf(in, "%s\n", line.c_str());
        std::fflush(in);
    }

    /** Send a control command and block for its response object. */
    serve::JsonObject controlExtra(const char *cmd,
                                   const std::string &extra)
    {
        std::string id = nextId();
        serve::JsonObject result;
        bool got = false;
        std::condition_variable cv;
        {
            std::unique_lock<std::mutex> lk(mtx);
            if (dead)
                return result; // server already gone; don't hang
            // The callback runs on the reader thread with mtx NOT
            // held; it must take it before touching the locals this
            // wait reads, and notify under it: once the waiter sees
            // `got` it returns and destroys `cv`.
            pending[id] = [&](const serve::JsonObject &obj) {
                std::lock_guard<std::mutex> cb_lk(mtx);
                result = obj;
                got = true;
                cv.notify_all();
            };
            writeLine(strprintf("{\"cmd\": \"%s\", \"id\": \"%s\"%s}",
                                cmd, id.c_str(), extra.c_str()));
            cv.wait(lk, [&] { return got; });
        }
        return result;
    }
    serve::JsonObject control(const char *cmd)
    {
        return controlExtra(cmd, "");
    }

    void readerLoop()
    {
        char *buf = nullptr;
        size_t cap = 0;
        ssize_t len;
        while ((len = getline(&buf, &cap, out)) > 0) {
            std::string line(buf, (size_t)len);
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r'))
                line.pop_back();
            if (line.empty())
                continue;
            serve::JsonObject obj;
            std::string err;
            if (!serve::parseFlatObject(line, &obj, &err)) {
                warn("unparseable response '%s': %s", line.c_str(),
                     err.c_str());
                continue;
            }
            std::string id = strField(obj, "id");
            std::function<void(const serve::JsonObject &)> cb;
            {
                std::lock_guard<std::mutex> lk(mtx);
                auto it = pending.find(id);
                if (it != pending.end()) {
                    cb = std::move(it->second);
                    pending.erase(it);
                }
            }
            if (cb)
                cb(obj);
            else
                warn("response for unknown id '%s'", id.c_str());
        }
        free(buf);
        // EOF: fail every outstanding request so no waiter hangs.
        serve::JsonObject died;
        {
            serve::JsonField f;
            f.kind = serve::JsonField::Kind::String;
            f.str = "vcb_serve exited";
            died.emplace_back("error", f);
        }
        std::vector<std::function<void(const serve::JsonObject &)>>
            orphans;
        {
            std::lock_guard<std::mutex> lk(mtx);
            dead = true;
            for (auto &kv : pending) {
                warn("no response for request '%s'", kv.first.c_str());
                orphans.push_back(std::move(kv.second));
            }
            pending.clear();
        }
        for (auto &cb : orphans)
            cb(died);
    }

    pid_t pid = -1;
    FILE *in = nullptr;
    FILE *out = nullptr;
    std::thread reader;
    std::atomic<uint64_t> seq{0};
    std::mutex mtx;
    bool dead = false;
    std::map<std::string,
             std::function<void(const serve::JsonObject &)>>
        pending;
};

// ---------------------------------------------------------------------------
// Phase driver
// ---------------------------------------------------------------------------

struct PhaseOutcome
{
    std::string name;
    uint64_t okCount = 0;
    uint64_t errCount = 0;
    double wallSec = 0;
    serve::LatencyRecorder::Snapshot lat;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t compileCalls = 0;
    uint64_t compileCpuNs = 0;
    /** Actually achieved offered rate: inter-issue rate over the
     *  phase ((n-1) / issue window), falling back to count/wall when
     *  fewer than two requests were issued. */
    double offeredRps = 0;
    std::vector<uint64_t> hashes; ///< per mix index; 0 = failed

    double hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? (double)hits / (double)total : 0.0;
    }
};

PhaseOutcome
runPhase(Client &client, const std::string &name,
         const std::vector<serve::Request> &mix, unsigned clients,
         double rate_rps)
{
    PhaseOutcome out;
    out.name = name;
    out.hashes.assign(mix.size(), 0);

    uint64_t h0, m0, cc0, cw0;
    client.cacheCounts(&h0, &m0, &cc0, &cw0);

    serve::LatencyRecorder recorder;
    std::mutex rec_mtx;
    auto record = [&](size_t idx, const ResultRec &rec) {
        recorder.record(rec.clientNs);
        std::lock_guard<std::mutex> lk(rec_mtx);
        if (rec.ok && rec.validated) {
            ++out.okCount;
            out.hashes[idx] = rec.hash;
        } else {
            ++out.errCount;
            warn("%s: request %zu failed: %s", name.c_str(), idx,
                 rec.error.c_str());
        }
    };

    // Actual issue instants bound the phase's achieved offered rate.
    std::mutex issue_mtx;
    std::chrono::steady_clock::time_point first_issue, last_issue;
    size_t issue_count = 0;
    auto noteIssue = [&] {
        auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lk(issue_mtx);
        if (issue_count == 0)
            first_issue = now;
        last_issue = now;
        ++issue_count;
    };

    auto t0 = std::chrono::steady_clock::now();
    if (rate_rps > 0) {
        // Open loop: issue at the configured rate, irrespective of
        // completions.
        std::chrono::duration<double> interval(1.0 / rate_rps);
        auto next = t0;
        for (size_t i = 0; i < mix.size(); ++i) {
            std::this_thread::sleep_until(next);
            next += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(interval);
            noteIssue();
            client.send(mix[i], [&record, i](const ResultRec &rec) {
                record(i, rec);
            });
        }
        client.drain();
    } else {
        // Closed loop: `clients` concurrent requesters, each waiting
        // for its response before taking the next mix entry.
        std::atomic<size_t> cursor{0};
        auto worker = [&] {
            for (;;) {
                size_t i = cursor.fetch_add(1);
                if (i >= mix.size())
                    return;
                std::mutex m;
                std::condition_variable cv;
                bool done = false;
                noteIssue();
                client.send(mix[i], [&](const ResultRec &rec) {
                    record(i, rec);
                    std::lock_guard<std::mutex> lk(m);
                    done = true;
                    cv.notify_all();
                });
                std::unique_lock<std::mutex> lk(m);
                cv.wait(lk, [&] { return done; });
            }
        };
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
        client.drain();
    }
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    double issue_window =
        std::chrono::duration<double>(last_issue - first_issue)
            .count();
    out.offeredRps =
        issue_count > 1 && issue_window > 0
            ? (double)(issue_count - 1) / issue_window
            : (out.wallSec > 0 ? (double)issue_count / out.wallSec
                               : 0);

    uint64_t h1, m1, cc1, cw1;
    client.cacheCounts(&h1, &m1, &cc1, &cw1);
    out.hits = h1 - h0;
    out.misses = m1 - m0;
    out.compileCalls = cc1 - cc0;
    out.compileCpuNs = cw1 - cw0;
    out.lat = recorder.snapshot();
    return out;
}

void
printPhase(const PhaseOutcome &p, unsigned clients, unsigned sessions)
{
    double rps = p.wallSec > 0
                     ? (double)(p.okCount + p.errCount) / p.wallSec
                     : 0;
    std::printf(
        "{\"phase\": \"%s\", \"requests\": %llu, \"ok\": %llu, "
        "\"errors\": %llu, \"clients\": %u, \"sessions\": %u, "
        "\"rate_rps\": %.1f, \"wall_s\": %.3f, "
        "\"throughput_rps\": %.2f, \"mean_ns\": %.0f, "
        "\"p50_ns\": %.0f, \"p95_ns\": %.0f, \"p99_ns\": %.0f, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"hit_rate\": %.4f, \"compile_calls\": %llu, "
        "\"compile_cpu_us\": %.1f}\n",
        p.name.c_str(),
        (unsigned long long)(p.okCount + p.errCount),
        (unsigned long long)p.okCount, (unsigned long long)p.errCount,
        clients, sessions, p.offeredRps, p.wallSec, rps, p.lat.meanNs,
        p.lat.p50Ns, p.lat.p95Ns, p.lat.p99Ns,
        (unsigned long long)p.hits, (unsigned long long)p.misses,
        p.hitRate(), (unsigned long long)p.compileCalls,
        p.compileCpuNs / 1e3);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    size_t requests = 120;
    unsigned clients = 4;
    unsigned sessions = 4;
    uint64_t seed = 42;
    double rate_rps = 0;
    std::string devices_dir, serve_bin;
    bool gate = true;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--requests")
            requests = parseCount("--requests", next(), 1, 1000000);
        else if (arg == "--clients")
            clients =
                static_cast<unsigned>(parseCount("--clients", next(), 1, 256));
        else if (arg == "--sessions")
            sessions =
                static_cast<unsigned>(parseCount("--sessions", next(), 1, 64));
        else if (arg == "--seed")
            seed = parseCount("--seed", next(), 0, UINT64_MAX);
        else if (arg == "--rate") {
            std::string v = next();
            char *end = nullptr;
            rate_rps = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !std::isfinite(rate_rps) ||
                rate_rps < 0)
                fatal("invalid --rate '%s' (want requests/s >= 0)",
                      v.c_str());
        } else if (arg == "--quick")
            requests = 36;
        else if (arg == "--devices")
            devices_dir = next();
        else if (arg == "--serve-bin")
            serve_bin = next();
        else if (arg == "--no-gate")
            gate = false;
        else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    // A dying server must surface as read EOF / failed requests, not
    // as a SIGPIPE kill while writing to it.
    signal(SIGPIPE, SIG_IGN);

    std::vector<serve::Request> mix = buildMix(requests, seed);

    std::unique_ptr<Client> client;
    if (!serve_bin.empty())
        client = std::make_unique<PipeClient>(serve_bin, sessions,
                                              devices_dir);
    else
        client = std::make_unique<BrokerClient>(
            sessions, devices_dir.empty()
                          ? std::vector<sim::DeviceSpec>{}
                          : sim::loadDeviceDir(devices_dir));

    // Phase 1: cache disabled (the ablation baseline).
    client->cacheEnable(false);
    client->cacheClear();
    PhaseOutcome off =
        runPhase(*client, "cache_off", mix, clients, rate_rps);
    printPhase(off, clients, sessions);

    // Phase 2: enabled from empty.
    client->cacheEnable(true);
    client->cacheClear();
    PhaseOutcome cold =
        runPhase(*client, "cache_cold", mix, clients, rate_rps);
    printPhase(cold, clients, sessions);

    // Phase 3: the same mix over the populated cache.
    PhaseOutcome warm =
        runPhase(*client, "cache_warm", mix, clients, rate_rps);
    printPhase(warm, clients, sessions);

    client.reset(); // shuts a spawned server down cleanly

    // Cross-phase verdicts.
    bool hash_match = true;
    for (size_t i = 0; i < mix.size(); ++i) {
        if (off.hashes[i] == 0 || off.hashes[i] != cold.hashes[i] ||
            off.hashes[i] != warm.hashes[i]) {
            warn("hash mismatch at request %zu (%s/%s/%s): "
                 "off=%016llx cold=%016llx warm=%016llx",
                 i, mix[i].bench.c_str(), mix[i].api.c_str(),
                 mix[i].device.c_str(),
                 (unsigned long long)off.hashes[i],
                 (unsigned long long)cold.hashes[i],
                 (unsigned long long)warm.hashes[i]);
            hash_match = false;
        }
    }
    double warm_rate = warm.hitRate();
    bool rate_ok = warm_rate > 0.9;
    double p50_speedup =
        warm.lat.p50Ns > 0 ? off.lat.p50Ns / warm.lat.p50Ns : 0;
    // The latency the cache removes, isolated from execution noise:
    // thread-CPU time spent inside compileKernel per phase.  Warm-
    // phase hits skip validation/decode/lowering — strictly less work
    // — so this must drop whenever the warm phase actually hits.
    double compile_speedup =
        warm.compileCpuNs > 0
            ? (double)off.compileCpuNs / (double)warm.compileCpuNs
            : 0;
    bool compile_ok = compile_speedup > 1.0;

    bool pass = hash_match && rate_ok && compile_ok;
    std::printf("{\"phase\": \"summary\", \"hash_match\": %s, "
                "\"warm_hit_rate\": %.4f, "
                "\"p50_speedup_off_to_warm\": %.3f, "
                "\"compile_cpu_speedup_off_to_warm\": %.3f, "
                "\"gate\": \"%s\"}\n",
                hash_match ? "true" : "false", warm_rate, p50_speedup,
                compile_speedup,
                !gate ? "skipped" : pass ? "pass" : "fail");
    return (gate && !pass) ? 1 : 0;
}
