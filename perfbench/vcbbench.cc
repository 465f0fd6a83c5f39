/**
 * @file
 * vcbbench — the measuring half of the repository benchmark.
 *
 * run.py builds this binary, starts it once per run and aggregates
 * what it prints.  The binary runs one workload: it sets up (several
 * times, so the set-up time is a median), then repeats the workload's
 * operation until --seconds have passed and prints one JSON record per
 * line:
 *
 *   {"rec": "header", ...}   machine and run parameters
 *   {"rec": "setup", ...}    per-repetition set-up times
 *   {"rec": "probe", ...}    (--trace 1) direct compileKernel timings
 *   {"rec": "op", ...}       one per operation: wall, CPU, peak RSS,
 *                            workgroups, request latencies, failures
 *                            and, with --trace 1, the per-layer numbers
 *
 * Workloads (see README.md for why each exists):
 *
 *   suite_full   operation = all 12 registry benchmarks at their
 *                largest desktop size on the GTX 1050 Ti, Vulkan,
 *                preferred strategy, on a one-session sweep.
 *   book_quick   operation = build and render the dry-scale report
 *                book at jobs = min(nproc, 4), compared byte for byte
 *                with docs/RESULTS.md.
 *   serve_small  operation = one pass of a seeded stream of
 *                smallest-size run requests through parseRequestLine,
 *                a two-session ServeBroker and serializeResponse, from
 *                two closed-loop synchronous clients.
 *
 * suite_full and book_quick inputs are fixed by suite::workloadSeed
 * (docs/RESULTS.md depends on them); --seed only shapes the
 * serve_small request stream.
 *
 * Host time is reported as host time (ms, s, us).  Simulated time, the
 * modelled device's clock, carries the unit sim_ms.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "harness/report_book.h"
#include "harness/sweep.h"
#include "kernels/kernels.h"
#include "probes.h"
#include "serve/protocol.h"
#include "serve/serve.h"
#include "sim/compile_cache.h"
#include "sim/device_file.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "suite/benchmark.h"

using namespace vcb;
using perfbench::ProbeTotals;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Resident set size now (MB), from /proc/self/statm.  Plain syscalls
 *  and a stack buffer: the sampler thread must never call malloc, or
 *  glibc gives it an arena of its own, which changes how the workload
 *  threads reuse arenas and so their RSS. */
double
residentMb()
{
    char buf[128] = {};
    const int fd = open("/proc/self/statm", O_RDONLY);
    if (fd < 0)
        return 0.0;
    const ssize_t n = read(fd, buf, sizeof buf - 1);
    close(fd);
    long size = 0, resident = 0;
    if (n <= 0 || std::sscanf(buf, "%ld %ld", &size, &resident) != 2)
        return 0.0;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

/**
 * Peak resident memory of one operation: a thread samples the RSS every
 * 5 ms while it lives.  The process-lifetime peak (ru_maxrss)
 * would not do: on book_quick it depends on which large cells happen
 * to overlap in any one of the run's books, so it jumps between runs.
 */
class RssSampler
{
  public:
    RssSampler() : thread([this] { loop(); }) {}
    ~RssSampler()
    {
        {
            std::lock_guard<std::mutex> lk(mtx);
            stop = true;
        }
        cv.notify_all();
        thread.join();
    }
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    double peakMb()
    {
        std::lock_guard<std::mutex> lk(mtx);
        return std::max(peak, residentMb());
    }

  private:
    void loop()
    {
        std::unique_lock<std::mutex> lk(mtx);
        do
            peak = std::max(peak, residentMb());
        while (!cv.wait_for(lk, std::chrono::milliseconds(5),
                            [&] { return stop; }));
    }

    std::mutex mtx;
    std::condition_variable cv;
    bool stop = false;
    double peak = 0;
    std::thread thread;
};

/** One flat-ish JSON record on one stdout line. */
class Rec
{
  public:
    explicit Rec(const char *kind) { s = std::string("{\"rec\": \"") + kind + "\""; }

    Rec &num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.10g", v);
        return raw(k, buf);
    }
    Rec &str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + serve::jsonEscape(v) + "\"");
    }
    Rec &list(const std::string &k, const std::vector<double> &v)
    {
        std::string out = "[";
        char buf[64];
        for (size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.8g", i ? ", " : "", v[i]);
            out += buf;
        }
        return raw(k, out + "]");
    }
    Rec &raw(const std::string &k, const std::string &json)
    {
        s += ", \"" + k + "\": " + json;
        return *this;
    }
    void emit()
    {
        std::printf("%s}\n", s.c_str());
        std::fflush(stdout);
    }

  private:
    std::string s;
};

// ---------------------------------------------------------------------------
// Per-layer numbers
// ---------------------------------------------------------------------------

/** Every per-layer metric, in BENCHMARK.json order.  Each workload
 *  reports all of them; a layer the workload never enters reads 0. */
const char *const kLayerNames[] = {
    "sim.dispatch_ms",       "sim.workgroups",
    "sim.dispatch_wg_per_s", "sim.tier.trace_wg",
    "sim.tier.block_wg",     "sim.tier.lanemajor_wg",
    "sim.tier.instrumented_wg",
    "sim.compile_calls",     "sim.compile_cpu_ms",
    "sim.compile_hit_rate",  "sim.launches",
    "sim.kernel_region_ms",  "sim.device_busy_ms",
    "sim.migrated_mb",       "sim.fault_ms",
    "suite.gen_ms",          "suite.validate_ms",
    "suite.runs",            "vkm.overhead_ms",
    "ocl.overhead_ms",       "cuda.overhead_ms",
    "harness.cells",         "harness.sweep_wall_ms",
    "harness.slowest_cell_ms", "harness.busy_frac",
    "harness.critical_path_ratio", "harness.render_ms",
    "serve.parse_us",        "serve.serialize_us",
    "serve.service_ms",      "serve.queue_ms",
    "unattributed_ms",       "trace.wall_s",
};

using Layers = std::map<std::string, double>;

Layers
zeroLayers()
{
    Layers l;
    for (const char *n : kLayerNames)
        l[n] = 0.0;
    return l;
}

/** Process-wide counters sampled around one operation. */
struct Counters
{
    uint64_t dispatchNs = 0;
    uint64_t workgroups = 0;
    uint64_t tiers[static_cast<size_t>(sim::ExecTier::Count)] = {};
    sim::CompileCacheStats cache;
    ProbeTotals probes;
};

Counters
sampleCounters()
{
    Counters c;
    c.dispatchNs = sim::dispatchWallNs();
    c.workgroups = sim::executedWorkgroupCount();
    for (size_t t = 0; t < static_cast<size_t>(sim::ExecTier::Count); ++t)
        c.tiers[t] = sim::tierWorkgroupCount(static_cast<sim::ExecTier>(t));
    c.cache = sim::CompileCache::global().stats();
    c.probes = perfbench::probeTotals();
    return c;
}

/** Layers every workload measures the same way.  Returns the
 *  attributed thread time (ms) of the library layers: dispatch,
 *  compile, validation and runtime overhead. */
double
fillLibraryLayers(Layers &l, const Counters &a, const Counters &b)
{
    const ProbeTotals p = b.probes - a.probes;
    const double dispatch_ms = double(b.dispatchNs - a.dispatchNs) / 1e6;
    const uint64_t wg = b.workgroups - a.workgroups;
    l["sim.dispatch_ms"] = dispatch_ms;
    l["sim.workgroups"] = double(wg);
    l["sim.dispatch_wg_per_s"] =
        dispatch_ms > 0 ? double(wg) / (dispatch_ms / 1e3) : 0.0;
    auto tier = [&](sim::ExecTier t) {
        const size_t i = static_cast<size_t>(t);
        return double(b.tiers[i] - a.tiers[i]);
    };
    l["sim.tier.trace_wg"] = tier(sim::ExecTier::Trace);
    l["sim.tier.block_wg"] = tier(sim::ExecTier::Block);
    l["sim.tier.lanemajor_wg"] = tier(sim::ExecTier::LaneMajor);
    l["sim.tier.instrumented_wg"] = tier(sim::ExecTier::Instrumented);

    const uint64_t hits = b.cache.hits - a.cache.hits;
    const uint64_t misses = b.cache.misses - a.cache.misses;
    l["sim.compile_calls"] = double(b.cache.compileCalls - a.cache.compileCalls);
    l["sim.compile_cpu_ms"] =
        double(b.cache.compileCpuNs - a.cache.compileCpuNs) / 1e6;
    l["sim.compile_hit_rate"] =
        hits + misses ? double(hits) / double(hits + misses) : 0.0;

    l["sim.launches"] = double(p.launches);
    l["sim.kernel_region_ms"] = double(p.kernelRegionNs) / 1e6;
    l["sim.device_busy_ms"] = double(p.deviceBusyNs) / 1e6;
    l["sim.migrated_mb"] = double(p.migratedBytes) / (1024.0 * 1024.0);
    l["sim.fault_ms"] = double(p.faultNs) / 1e6;

    l["suite.validate_ms"] = double(p.allValidateNs()) / 1e6;
    l["suite.runs"] = double(p.allRuns());
    const char *const overhead[3] = {"vkm.overhead_ms", "ocl.overhead_ms",
                                     "cuda.overhead_ms"};
    double overhead_ms = 0;
    for (size_t i = 0; i < 3; ++i) {
        const double o = double(p.runnerNs[i] - p.runnerDispatchNs[i] -
                                p.runnerCompileNs[i] -
                                p.runnerValidateNs[i]) /
                         1e6;
        l[overhead[i]] = o;
        overhead_ms += o;
    }
    l["_runner_ms"] = double(p.allRunnerNs()) / 1e6;
    return dispatch_ms + double(p.compileNs) / 1e6 +
           l["suite.validate_ms"] + overhead_ms;
}

/** Harness layers from the sweep plans one operation ran; returns the
 *  sweep's job count.  `gen_ms` receives the cell time outside the
 *  runners in cells that ran a workload (Benchmark::workload). */
unsigned
fillHarnessLayers(Layers &l, const std::vector<perfbench::SweepLedger> &ls,
                  std::string *slowest_label, double *gen_ms)
{
    unsigned jobs = 1;
    double cells = 0, wall = 0, busy = 0, slowest = 0, gen = 0;
    for (const auto &s : ls) {
        jobs = std::max(jobs, s.stats.jobs);
        cells += double(s.stats.cells);
        wall += s.stats.wallMs;
        for (size_t c = 0; c < s.stats.cells; ++c) {
            const double cw = s.stats.cellWallMs[c];
            busy += cw;
            if (cw > slowest) {
                slowest = cw;
                *slowest_label = s.label.empty() || s.label[c].empty()
                                     ? "cell " + std::to_string(c) +
                                           " (no workload run)"
                                     : "cell " + std::to_string(c) + " " +
                                           s.label[c];
            }
            if (!s.label.empty() && !s.label[c].empty())
                gen += cw - s.runnerMs[c];
        }
    }
    l["harness.cells"] = cells;
    l["harness.sweep_wall_ms"] = wall;
    l["harness.slowest_cell_ms"] = slowest;
    l["harness.busy_frac"] = wall > 0 ? busy / (jobs * wall) : 0.0;
    l["harness.critical_path_ratio"] = slowest > 0 ? wall / slowest : 0.0;
    *gen_ms = gen;
    return jobs;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/** One measured operation. */
struct Op
{
    double wallS = 0;
    double cpuS = 0;
    double peakRssMb = 0;
    uint64_t workgroups = 0;
    /** Requests completed: benchmark runs (suite_full), sweep cells
     *  (book_quick), served requests (serve_small). */
    uint64_t requests = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Per-request latency samples (ms). */
    std::vector<double> latMs;
    bool traced = false;
    Layers layers;
    std::string slowestCell;
};

void
emitOp(const Op &op)
{
    Rec r("op");
    r.num("wall_s", op.wallS)
        .num("cpu_s", op.cpuS)
        .num("workgroups", double(op.workgroups))
        .num("requests", double(op.requests))
        .num("attempted", double(op.attempted))
        .num("failed", double(op.failed))
        .num("peak_rss_mb", op.peakRssMb)
        .list("lat_ms", op.latMs);
    if (op.traced) {
        std::string layers = "{";
        char buf[64];
        for (const char *n : kLayerNames) {
            std::snprintf(buf, sizeof buf, "%s\"%s\": %.10g",
                          layers.size() > 1 ? ", " : "", n,
                          op.layers.at(n));
            layers += buf;
        }
        r.raw("layers", layers + "}").str("slowest_cell", op.slowestCell);
    }
    r.emit();
}

/** Time `body` as one operation: wall, CPU, workgroups, and with
 *  tracing the library layers around it. */
template <typename Body>
Op
measure(bool trace, Body &&body)
{
    perfbench::takeSweepLedgers();
    Op op;
    RssSampler rss;
    const Counters c0 = sampleCounters();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    body();
    op.wallS = msSince(t0) / 1e3;
    op.cpuS = cpuSeconds() - cpu0;
    op.peakRssMb = rss.peakMb();
    const Counters c1 = sampleCounters();
    op.workgroups = c1.workgroups - c0.workgroups;
    op.traced = trace;
    if (trace) {
        op.layers = zeroLayers();
        op.layers["trace.wall_s"] = op.wallS;
        op.layers["_library_ms"] = fillLibraryLayers(op.layers, c0, c1);
    }
    return op;
}

/** Close the books on a sweep-based operation's layers: harness, gen
 *  and unattributed = wall - render - attributed thread time / jobs. */
void
finishSweepLayers(Op &op, const std::vector<perfbench::SweepLedger> &ls,
                  double render_ms)
{
    if (!op.traced)
        return;
    double gen_ms = 0;
    const unsigned jobs =
        fillHarnessLayers(op.layers, ls, &op.slowestCell, &gen_ms);
    op.layers["suite.gen_ms"] = gen_ms;
    op.layers["harness.render_ms"] = render_ms;
    const double attributed = op.layers["_library_ms"] + gen_ms;
    op.layers["unattributed_ms"] =
        op.wallS * 1e3 - render_ms - attributed / jobs;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct SetupRep
{
    double totalS = 0;
    double deviceLoadMs = 0;
    double kernelsBuildMs = 0;
};

/** Device-dir load and kernel registry build: the set-up every
 *  workload pays. */
std::vector<sim::DeviceSpec>
loadDevicesAndKernels(const std::string &repo, SetupRep &rep)
{
    auto t0 = Clock::now();
    std::vector<sim::DeviceSpec> devices =
        sim::loadDeviceDir(repo + "/devices");
    rep.deviceLoadMs = msSince(t0);
    t0 = Clock::now();
    size_t words = 0;
    for (const auto &[name, build] : kernels::kernelRegistry())
        words += build().code.size();
    rep.kernelsBuildMs = msSince(t0);
    if (words == 0)
        fatal("kernel registry built empty modules");
    return devices;
}

void
emitSetup(const std::vector<SetupRep> &reps)
{
    std::vector<double> total, load, build;
    for (const SetupRep &r : reps) {
        total.push_back(r.totalS);
        load.push_back(r.deviceLoadMs);
        build.push_back(r.kernelsBuildMs);
    }
    Rec("setup")
        .list("setup_s", total)
        .list("device_load_ms", load)
        .list("kernels_build_ms", build)
        .emit();
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/**
 * Set-up of the two sweep workloads: device-dir load and kernel
 * registry build, installed as the active registry, then one warm
 * pass.  The pass runs the 12 registry benchmarks at their smallest
 * desktop size on the GTX 1050 Ti, Vulkan, on a one-session sweep from
 * a cold compile cache: the lazy set-up a fresh process pays before
 * its runs reach steady state.  Without the pass, set-up takes a
 * fraction of a millisecond, and that time doubles from one process to
 * the next.
 */
const std::vector<sim::DeviceSpec> &
sweepSetup(const std::string &repo)
{
    std::vector<SetupRep> reps;
    const std::vector<sim::DeviceSpec> *devices = nullptr;
    for (int i = 0; i < kSetupReps; ++i) {
        sim::CompileCache::global().clear();
        SetupRep rep;
        const auto t0 = Clock::now();
        devices =
            &sim::setActiveDeviceRegistry(loadDevicesAndKernels(repo, rep));
        const std::string gtx = sim::deviceByName("gtx1050ti").name;
        const auto &benches = suite::registry();
        harness::SweepOptions opts;
        opts.jobs = 1;
        harness::runSweepPlan(
            benches.size(),
            [&](size_t c) {
                benches[c]->run(sim::deviceByName(gtx), sim::Api::Vulkan,
                                benches[c]->desktopSizes().front());
            },
            opts);
        rep.totalS = msSince(t0) / 1e3;
        reps.push_back(rep);
    }
    emitSetup(reps);
    return *devices;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::string repo = ".";
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
};

/** Repeat `op_fn` until `seconds` have passed (at least once). */
template <typename OpFn>
void
repeatOps(double seconds, OpFn &&op_fn)
{
    const auto t0 = Clock::now();
    do {
        emitOp(op_fn());
    } while (msSince(t0) < seconds * 1e3);
}

void
compileProbe(bool trace)
{
    if (!trace)
        return;
    // Direct compileKernel calls over the whole kernel registry on the
    // GTX 1050 Ti / Vulkan: cache cleared (misses), then warm (hits).
    const sim::DeviceSpec &dev = sim::deviceByName("gtx1050ti");
    std::vector<spirv::Module> mods;
    for (const auto &[name, build] : kernels::kernelRegistry())
        mods.push_back(build());
    auto pass = [&] {
        const auto t0 = Clock::now();
        for (const spirv::Module &m : mods) {
            std::string err;
            if (!sim::compileKernel(m, dev, sim::Api::Vulkan, &err))
                fatal("compile probe: %s", err.c_str());
        }
        return msSince(t0) * 1e3 / double(mods.size());
    };
    sim::CompileCache::global().clear();
    const double miss_us = pass();
    const double hit_us = pass();
    Rec("probe")
        .num("sim.compile_miss_us", miss_us)
        .num("sim.compile_hit_us", hit_us)
        .emit();
}

int
runSuiteFull(const Args &args)
{
    sweepSetup(args.repo);
    compileProbe(args.trace);
    const std::string dev_name = sim::deviceByName("gtx1050ti").name;
    const auto &benches = suite::registry();

    // Simulated fields of the first pass: every later pass must repeat
    // them exactly.
    std::vector<suite::RunResult> first;
    repeatOps(args.seconds, [&] {
        // Each pass compiles cold, as one vcb_perf --suite process does.
        sim::CompileCache::global().clear();
        std::vector<suite::RunResult> res(benches.size());
        harness::SweepStats stats;
        Op op = measure(args.trace, [&] {
            harness::SweepOptions opts;
            opts.jobs = 1;
            stats = harness::runSweepPlan(
                benches.size(),
                [&](size_t c) {
                    const suite::Benchmark *b = benches[c];
                    auto sizes = b->desktopSizes();
                    res[c] = b->run(sim::deviceByName(dev_name),
                                    sim::Api::Vulkan,
                                    args.tiny ? sizes.front()
                                              : sizes.back());
                },
                opts);
        });
        finishSweepLayers(op, perfbench::takeSweepLedgers(), 0.0);
        op.requests = op.attempted = benches.size();
        op.latMs = stats.cellWallMs;
        for (size_t b = 0; b < benches.size(); ++b) {
            const suite::RunResult &r = res[b];
            bool good = r.ok && r.validated;
            if (!first.empty())
                good = good && r.kernelRegionNs == first[b].kernelRegionNs &&
                       r.totalNs == first[b].totalNs &&
                       r.launches == first[b].launches;
            if (!good) {
                ++op.failed;
                std::fprintf(stderr, "vcbbench: %s failed or drifted\n",
                             benches[b]->name().c_str());
            }
        }
        if (first.empty())
            first = res;
        return op;
    });
    return 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

int
runBookQuick(const Args &args, unsigned jobs)
{
    const std::string expected = readFile(args.repo + "/docs/RESULTS.md");
    const std::vector<sim::DeviceSpec> &devices = sweepSetup(args.repo);
    compileProbe(args.trace);

    repeatOps(args.seconds, [&] {
        // Each book compiles cold, as one vcb_report process does.
        sim::CompileCache::global().clear();
        double render_ms = 0;
        bool ok = false;
        size_t cells = 0;
        Op op = measure(args.trace, [&] {
            harness::ReportBook book =
                harness::buildReportBook(devices, true, jobs);
            const auto r0 = Clock::now();
            const std::string md = harness::renderResultsBook(book);
            render_ms = msSince(r0);
            ok = book.allValidated() && md == expected;
            cells = book.cells;
        });
        op.requests = cells;
        op.attempted = 1;
        op.failed = ok ? 0 : 1;
        if (!ok)
            std::fprintf(stderr, "vcbbench: book failed validation or "
                                 "differs from docs/RESULTS.md\n");
        const auto ledgers = perfbench::takeSweepLedgers();
        for (const auto &l : ledgers)
            op.latMs.insert(op.latMs.end(), l.stats.cellWallMs.begin(),
                            l.stats.cellWallMs.end());
        finishSweepLayers(op, ledgers, render_ms);
        return op;
    });
    return 0;
}

/** One request of the serve stream with its serial golden answer. */
struct StreamReq
{
    std::string line;
    uint64_t hash = 0;
    double kernelRegionNs = 0;
    uint64_t launches = 0;
};

/**
 * The serve request set: every smallest-size (device, bench, API,
 * admissible strategy) request that executes and validates serially,
 * cfd and nw left out (at their smallest size they still take
 * 200-300 ms, mostly in dispatch).  `limit` > 0 keeps a seeded subset
 * of that many.  Each request's golden answer comes from a serial
 * executeRequest on this thread.
 */
/** Seeded Fisher-Yates shuffle (std::shuffle's draws are
 *  implementation-defined). */
template <typename T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[size_t(rng() % i)]);
}

std::vector<StreamReq>
makeStream(const std::vector<sim::DeviceSpec> &devices, uint64_t seed,
           unsigned limit)
{
    std::vector<StreamReq> stream;
    for (const sim::DeviceSpec &dev : devices) {
        for (const suite::Benchmark *b : suite::registry()) {
            if (b->name() == "cfd" || b->name() == "nw")
                continue;
            auto sizes = b->sizesFor(dev);
            if (sizes.empty())
                continue;
            const auto strategies =
                suite::applicableStrategies(b->workload(sizes.front()));
            for (int a = 0; a < sim::apiCount; ++a) {
                const auto api = static_cast<sim::Api>(a);
                if (!dev.profile(api).available)
                    continue;
                serve::Request req;
                req.bench = b->name();
                req.device = dev.name;
                req.api = api == sim::Api::Vulkan   ? "vulkan"
                          : api == sim::Api::OpenCl ? "opencl"
                                                    : "cuda";
                std::vector<std::string> names = {"default"};
                if (api == sim::Api::Vulkan) {
                    names.clear();
                    for (suite::SubmitStrategy st : strategies)
                        names.push_back(suite::strategyName(st));
                }
                for (const std::string &name : names) {
                    req.strategy = name;
                    const serve::Response r = serve::executeRequest(req);
                    if (!r.ok || !r.validated)
                        continue; // driver-failure quirks, by design
                    StreamReq g;
                    g.line = "{\"bench\": \"" + req.bench +
                             "\", \"size\": 0, \"api\": \"" + req.api +
                             "\", \"device\": \"" +
                             serve::jsonEscape(req.device) +
                             "\", \"strategy\": \"" + name + "\"";
                    g.hash = r.resultHash;
                    g.kernelRegionNs = r.kernelRegionNs;
                    g.launches = r.launches;
                    stream.push_back(std::move(g));
                }
            }
        }
    }
    if (stream.empty())
        fatal("no serve request executes serially");

    if (limit && limit < stream.size()) {
        std::mt19937_64 rng(seed);
        shuffle(stream, rng);
        stream.resize(limit);
    }
    for (size_t i = 0; i < stream.size(); ++i)
        stream[i].line += ", \"id\": \"r" + std::to_string(i) + "\"}";
    return stream;
}

/** Per-request client-side measurements of one stream pass. */
struct ServeSample
{
    double latMs = 0, parseUs = 0, serializeUs = 0, serviceMs = 0,
           queueMs = 0;
    bool good = false;
};

/**
 * One pass over the whole request set through `broker`, in a fresh
 * order drawn from `rng`, from `clients` closed-loop synchronous
 * clients sharing one cursor.  Every pass serves the same requests, so
 * the work per pass is the same for every seed; the seed moves only the
 * orders, and so which requests queue behind which.
 */
std::vector<ServeSample>
servePass(serve::ServeBroker &broker, const std::vector<StreamReq> &stream,
          std::mt19937_64 &rng, unsigned clients)
{
    std::vector<size_t> order(stream.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    shuffle(order, rng);
    std::vector<ServeSample> out(stream.size());
    std::atomic<size_t> cursor{0};
    auto client = [&] {
        for (;;) {
            const size_t next = cursor.fetch_add(1);
            if (next >= stream.size())
                return;
            const size_t i = order[next];
            ServeSample &s = out[i];
            const auto t0 = Clock::now();
            serve::Request req;
            std::string err;
            const bool parsed = serve::parseRequestLine(stream[i].line,
                                                        &req, &err);
            const auto t1 = Clock::now();
            serve::Response r;
            if (parsed)
                r = broker.submitSync(req);
            const auto t2 = Clock::now();
            const std::string wire = serve::serializeResponse(r);
            const auto t3 = Clock::now();
            auto ms = [](Clock::time_point a, Clock::time_point b) {
                return std::chrono::duration<double, std::milli>(b - a)
                    .count();
            };
            s.latMs = ms(t0, t3);
            s.parseUs = ms(t0, t1) * 1e3;
            s.serializeUs = ms(t2, t3) * 1e3;
            s.serviceMs = r.serviceNs / 1e6;
            s.queueMs = ms(t1, t2) - s.serviceMs;
            s.good = parsed && r.ok && r.validated && !wire.empty() &&
                     r.resultHash == stream[i].hash &&
                     r.kernelRegionNs == stream[i].kernelRegionNs &&
                     r.launches == stream[i].launches;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client);
    for (auto &t : threads)
        t.join();
    return out;
}

int
runServeSmall(const Args &args)
{
    constexpr unsigned kSessions = 2;
    constexpr unsigned kClients = 2;
    // Golden answers run serially on this thread, before any set-up.
    const std::vector<sim::DeviceSpec> &devices = sim::setActiveDeviceRegistry(
        sim::loadDeviceDir(args.repo + "/devices"));
    const std::vector<StreamReq> stream =
        makeStream(devices, args.seed, args.tiny ? 24 : 0);
    std::mt19937_64 rng(args.seed);
    compileProbe(args.trace);

    // Set-up = device load, kernel registry, broker start and one
    // untimed warm pass, from a cold compile cache.
    std::unique_ptr<serve::ServeBroker> broker;
    std::vector<SetupRep> reps;
    for (int i = 0; i < kSetupReps; ++i) {
        broker.reset();
        sim::CompileCache::global().clear();
        SetupRep rep;
        const auto t0 = Clock::now();
        serve::BrokerConfig cfg;
        cfg.sessions = kSessions;
        cfg.devices = loadDevicesAndKernels(args.repo, rep);
        broker = std::make_unique<serve::ServeBroker>(std::move(cfg));
        servePass(*broker, stream, rng, kClients);
        rep.totalS = msSince(t0) / 1e3;
        reps.push_back(rep);
    }
    emitSetup(reps);

    repeatOps(args.seconds, [&] {
        std::vector<ServeSample> samples;
        Op op = measure(args.trace, [&] {
            samples = servePass(*broker, stream, rng, kClients);
        });
        op.requests = op.attempted = samples.size();
        double parse = 0, ser = 0, svc = 0, queue = 0;
        for (const ServeSample &s : samples) {
            op.latMs.push_back(s.latMs);
            op.failed += s.good ? 0 : 1;
            parse += s.parseUs;
            ser += s.serializeUs;
            svc += s.serviceMs;
            queue += s.queueMs;
        }
        if (op.failed)
            std::fprintf(stderr, "vcbbench: %llu served requests failed or "
                                 "differ from their serial golden\n",
                         (unsigned long long)op.failed);
        if (op.traced) {
            const double n = double(samples.size());
            Layers &l = op.layers;
            l["serve.parse_us"] = parse / n;
            l["serve.serialize_us"] = ser / n;
            l["serve.service_ms"] = svc / n;
            l["serve.queue_ms"] = queue / n;
            // Service time outside the runners: Benchmark::workload plus
            // request resolution and result hashing.
            l["suite.gen_ms"] = svc - l["_runner_ms"];
            l["unattributed_ms"] =
                op.wallS * 1e3 -
                (parse / 1e3 + ser / 1e3 + queue + svc) / kClients;
        }
        return op;
    });
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: vcbbench --workload suite_full|book_quick|"
                 "serve_small [--seed N] [--seconds S]\n"
                 "                [--trace 0|1] [--repo DIR] [--tiny]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--workload")
            args.workload = next();
        else if (a == "--seed")
            args.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(next().c_str());
        else if (a == "--trace")
            args.trace = next() == "1";
        else if (a == "--repo")
            args.repo = next();
        else if (a == "--tiny")
            args.tiny = true;
        else {
            usage();
            return 2;
        }
    }

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(nproc, 4u);
    const char *threads = std::getenv("VCB_THREADS");
    Rec("header")
        .str("workload", args.workload)
        .num("nproc", nproc)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", __VERSION__)
        .str("vcb_threads", threads ? threads : "unset")
        .num("jobs", args.workload == "book_quick" ? jobs : 1)
        .num("seed", double(args.seed))
        .num("trace", args.trace)
        .num("tiny", args.tiny)
        .emit();

    perfbench::setTracing(args.trace);
    if (args.workload == "suite_full")
        return runSuiteFull(args);
    if (args.workload == "book_quick")
        return runBookQuick(args, jobs);
    if (args.workload == "serve_small")
        return runServeSmall(args);
    usage();
    return 2;
}
