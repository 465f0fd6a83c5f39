/**
 * @file
 * vcb_perf — simulator-throughput harness for regression tracking.
 *
 * Runs a fixed mix of suite dispatches (bfs, hotspot, lud, gaussian,
 * srad, kmeans, streamcluster — see kMix below for why each is there)
 * and reports the simulator's own throughput in workgroups per second.
 * Each line reports two host wall times: wall_ms is the whole
 * benchmark run (including host-side workload generation, CPU
 * reference and validation), dispatch_wall_ms is the time spent inside
 * the execution engine (sim::dispatchWallNs) — workgroups_per_s is
 * workgroups / dispatch_wall_ms, so the tracked number measures the
 * simulator hot path and is not diluted by constant host-side work.
 * Neither is simulated device time.
 * Output is one JSON object per line so BENCH_*.json trajectory
 * tracking (and the CI log) has a stable machine-readable source:
 *
 *   {"bench": "bfs", "size": "1M", "api": "vulkan", ...}
 *   ...
 *   {"bench": "mix", "wall_ms": ..., "dispatch_wall_ms": ...,
 *    "workgroups_per_s": ...}
 *
 * Each benchmark line's "validated" covers that benchmark's runs in
 * every repeat; the mix line's covers them all, and so does the exit
 * status.
 *
 * For reproducible numbers pin the host parallelism with VCB_THREADS
 * (total executing threads; 1 = fully serial) and compare only the
 * final "mix" line.
 *
 * --suite switches to the per-benchmark snapshot mode: every registry
 * benchmark runs once under the selected API at its preferred
 * submission strategy, and each JSON line carries the strategy tag and
 * the paper's kernel_region_ns metric.  (The CI-tracked suite snapshot
 * is the superset `vcb_report --suite-json --quick` — every device and
 * API, wall-clock-free, committed as BENCH_report.json; --suite stays
 * as the single-device interactive probe.)
 *
 *   vcb_perf            # paper-scale reference mix (largest sizes)
 *   vcb_perf --quick    # small sizes, used as the ctest smoke entry
 *   vcb_perf --repeat 5 # median-of-5 mix (use for BENCH_perf.json)
 *   vcb_perf --suite [--quick]  # per-benchmark kernelRegionNs JSON
 *
 * --repeat N runs the whole mix N times and reports the MEDIAN
 * workgroups/s per benchmark and for the mix, with min/max spread, so
 * committed snapshot numbers are not single-shot noise on a loaded
 * host.  The mix line also carries the per-tier workgroup breakdown
 * (sim::tierWorkgroupCount) so the trajectory records which executor
 * tier did the work.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strutil.h"
#include "harness/sweep.h"
#include "sim/engine.h"
#include "suite/benchmark.h"

using namespace vcb;

namespace {

struct MixEntry
{
    const char *bench;
    /** Index into desktopSizes(): --quick uses the smallest paper
     *  size, the reference mix the largest. */
    size_t quickSize;
    size_t fullSize;
};

/** The reference dispatch mix: the suite benchmarks whose kernel
 *  structure spans the simulator's hot paths (bfs: data-dependent
 *  loops + atomics; hotspot: shared-memory stencil; lud: barriers +
 *  many small dispatches; gaussian: many thin dispatches; srad:
 *  reduction trees + readback-gated stencils; kmeans: uniform inner
 *  loops with a divergent atomic tail; streamcluster: branch-divergent
 *  lanes on the lane-major fallback). */
constexpr MixEntry kMix[] = {
    {"bfs", 0, 2},
    {"hotspot", 0, 2},
    {"lud", 0, 2},
    {"gaussian", 0, 2},
    {"srad", 0, 2},
    {"kmeans", 0, 2},
    {"streamcluster", 0, 2},
};

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

void
usage()
{
    std::printf("usage: vcb_perf [--quick] [--repeat N] [--suite] "
                "[--jobs N] [--device NAME] "
                "[--api vulkan|opencl|cuda]\n"
                "  --jobs N  (--suite only) sweep-executor sessions; "
                "simulated fields are\n            byte-identical at "
                "any job count (default: hardware\n"
                "            concurrency)\n");
}

/** Median of an unsorted sample (averages the middle pair). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** --suite: one JSON line per registry benchmark with the paper's
 *  metric and the submission strategy that produced it.  Runs on the
 *  sweep executor (src/harness/sweep.h): one cell per benchmark on
 *  `jobs` isolated sessions, results printed in registry order — the
 *  simulated fields are byte-identical at any job count; wall_ms and
 *  dispatch_wall_ms are the executor's per-cell ledger. */
int
runSuiteSnapshot(const sim::DeviceSpec &dev, sim::Api api, bool quick,
                 unsigned jobs)
{
    const auto &benches = suite::registry();
    std::vector<suite::RunResult> results(benches.size());
    std::vector<std::string> labels(benches.size());

    const std::string dev_name = dev.name;
    harness::SweepOptions sweep_opts;
    sweep_opts.jobs = jobs;
    harness::SweepStats stats = harness::runSweepPlan(
        benches.size(),
        [&](size_t cell) {
            const suite::Benchmark *bench = benches[cell];
            auto sizes = bench->desktopSizes();
            const suite::SizeConfig &cfg =
                quick ? sizes.front() : sizes.back();
            labels[cell] = cfg.label;
            // Resolve against the worker session's own registry copy
            // (the Vulkan front-end matches specs by identity).
            results[cell] = bench->run(sim::deviceByName(dev_name),
                                       api, cfg);
        },
        sweep_opts);

    bool all_ok = true;
    double suite_kernel_ns = 0;
    for (size_t b = 0; b < benches.size(); ++b) {
        const suite::RunResult &r = results[b];
        bool ok = r.ok && r.validated;
        all_ok = all_ok && ok;
        suite_kernel_ns += r.kernelRegionNs;
        std::printf("{\"bench\": \"%s\", \"size\": \"%s\", "
                    "\"api\": \"%s\", \"device\": \"%s\", "
                    "\"strategy\": \"%s\", "
                    "\"kernel_region_ns\": %.0f, \"total_ns\": %.0f, "
                    "\"launches\": %llu, \"wall_ms\": %.3f, "
                    "\"dispatch_wall_ms\": %.3f, \"validated\": %s}\n",
                    benches[b]->name().c_str(), labels[b].c_str(),
                    sim::apiName(api), dev.name.c_str(),
                    r.strategy.c_str(), r.kernelRegionNs, r.totalNs,
                    (unsigned long long)r.launches, stats.cellWallMs[b],
                    stats.cellDispatchMs[b], ok ? "true" : "false");
        std::fflush(stdout);
    }
    std::printf("{\"bench\": \"suite\", \"mode\": \"%s\", "
                "\"api\": \"%s\", \"device\": \"%s\", "
                "\"kernel_region_ns\": %.0f, \"jobs\": %u, "
                "\"sweep_wall_ms\": %.1f, \"validated\": %s}\n",
                quick ? "quick" : "full", sim::apiName(api),
                dev.name.c_str(), suite_kernel_ns, stats.jobs,
                stats.wallMs, all_ok ? "true" : "false");
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool suite_mode = false;
    int repeat = 1;
    unsigned jobs = 0; // --suite only; 0 = hardware concurrency
    std::string device_name = "gtx1050ti";
    std::string api_str = "vulkan";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--quick")
            quick = true;
        else if (arg == "--suite")
            suite_mode = true;
        else if (arg == "--repeat")
            repeat = static_cast<int>(parseCount("--repeat", next(), 1, 1000));
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(parseCount("--jobs", next(), 1, 256));
        else if (arg == "--device")
            device_name = next();
        else if (arg == "--api")
            api_str = next();
        else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    sim::Api api;
    if (api_str == "vulkan")
        api = sim::Api::Vulkan;
    else if (api_str == "opencl")
        api = sim::Api::OpenCl;
    else if (api_str == "cuda")
        api = sim::Api::Cuda;
    else
        fatal("unknown API '%s'", api_str.c_str());

    const sim::DeviceSpec &dev = sim::deviceByName(device_name);
    if (!dev.profile(api).available)
        fatal("%s is not available on %s", api_str.c_str(),
              dev.name.c_str());

    if (suite_mode)
        return runSuiteSnapshot(dev, api, quick, jobs);

    const char *threads_env = std::getenv("VCB_THREADS");

    constexpr size_t kBenches = std::size(kMix);
    // Per-bench samples across repeats.
    std::vector<std::vector<double>> b_wall(kBenches),
        b_dispatch(kBenches), b_wgps(kBenches);
    uint64_t b_wgs[kBenches] = {};
    uint64_t b_launches[kBenches] = {};
    std::string b_label[kBenches];
    std::vector<double> mix_wall_r, mix_dispatch_r, mix_wgps_r;
    uint64_t mix_wgs = 0;
    // Per-tier workgroups of one run, like mix_wgs: which executor tier
    // did the work (telemetry, not simulation state).
    constexpr size_t kTiers = static_cast<size_t>(sim::ExecTier::Count);
    uint64_t tier_wgs[kTiers] = {};
    // A benchmark that fails in any repeat reads failed on its own
    // line; the others keep their own verdicts.
    bool b_failed[kBenches] = {};
    bool all_ok = true;

    for (int rep = 0; rep < repeat; ++rep) {
        uint64_t tier0[kTiers];
        for (size_t t = 0; t < kTiers; ++t)
            tier0[t] =
                sim::tierWorkgroupCount(static_cast<sim::ExecTier>(t));
        uint64_t rep_wgs = 0;
        double rep_wall = 0;
        double rep_dispatch = 0;
        for (size_t b = 0; b < kBenches; ++b) {
            const MixEntry &e = kMix[b];
            const suite::Benchmark &bench = suite::byName(e.bench);
            auto sizes = bench.desktopSizes();
            size_t idx = quick ? e.quickSize : e.fullSize;
            VCB_ASSERT(idx < sizes.size(),
                       "mix size index out of range");
            const suite::SizeConfig &cfg = sizes[idx];

            uint64_t wg0 = sim::executedWorkgroupCount();
            uint64_t dispatch0 = sim::dispatchWallNs();
            double t0 = nowMs();
            suite::RunResult r = bench.run(dev, api, cfg);
            double wall_ms = nowMs() - t0;
            double dispatch_ms =
                (sim::dispatchWallNs() - dispatch0) / 1e6;
            uint64_t wgs = sim::executedWorkgroupCount() - wg0;

            b_failed[b] = b_failed[b] || !r.ok || !r.validated;
            all_ok = all_ok && !b_failed[b];
            b_wall[b].push_back(wall_ms);
            b_dispatch[b].push_back(dispatch_ms);
            b_wgps[b].push_back(dispatch_ms > 0 ? wgs * 1e3 / dispatch_ms
                                                : 0.0);
            b_wgs[b] = wgs;
            b_launches[b] = r.launches;
            b_label[b] = cfg.label;
            rep_wgs += wgs;
            rep_wall += wall_ms;
            rep_dispatch += dispatch_ms;
        }
        mix_wgs = rep_wgs;
        for (size_t t = 0; t < kTiers; ++t)
            tier_wgs[t] =
                sim::tierWorkgroupCount(static_cast<sim::ExecTier>(t)) -
                tier0[t];
        mix_wall_r.push_back(rep_wall);
        mix_dispatch_r.push_back(rep_dispatch);
        mix_wgps_r.push_back(
            rep_dispatch > 0 ? rep_wgs * 1e3 / rep_dispatch : 0.0);
    }

    for (size_t b = 0; b < kBenches; ++b) {
        std::printf("{\"bench\": \"%s\", \"size\": \"%s\", "
                    "\"api\": \"%s\", \"device\": \"%s\", "
                    "\"wall_ms\": %.3f, \"dispatch_wall_ms\": %.3f, "
                    "\"workgroups\": %llu, \"workgroups_per_s\": %.0f, "
                    "\"launches\": %llu, "
                    "\"validated\": %s}\n",
                    kMix[b].bench, b_label[b].c_str(),
                    sim::apiName(api), dev.name.c_str(),
                    median(b_wall[b]), median(b_dispatch[b]),
                    (unsigned long long)b_wgs[b], median(b_wgps[b]),
                    (unsigned long long)b_launches[b],
                    b_failed[b] ? "false" : "true");
        std::fflush(stdout);
    }

    const double wgps_med = median(mix_wgps_r);
    const double wgps_min =
        *std::min_element(mix_wgps_r.begin(), mix_wgps_r.end());
    const double wgps_max =
        *std::max_element(mix_wgps_r.begin(), mix_wgps_r.end());
    std::printf(
        "{\"bench\": \"mix\", \"mode\": \"%s\", "
        "\"wall_ms\": %.3f, \"dispatch_wall_ms\": %.3f, "
        "\"workgroups\": %llu, "
        "\"workgroups_per_s\": %.0f, "
        "\"wgps_min\": %.0f, \"wgps_max\": %.0f, "
        "\"repeats\": %d, "
        "\"tiers\": {\"trace\": %llu, \"block\": %llu, "
        "\"lanemajor\": %llu, \"instrumented\": %llu}, "
        "\"vcb_threads\": \"%s\", \"validated\": %s}\n",
        quick ? "quick" : "full", median(mix_wall_r),
        median(mix_dispatch_r),
        (unsigned long long)mix_wgs, wgps_med,
        wgps_min, wgps_max, repeat,
        (unsigned long long)
            tier_wgs[static_cast<size_t>(sim::ExecTier::Trace)],
        (unsigned long long)
            tier_wgs[static_cast<size_t>(sim::ExecTier::Block)],
        (unsigned long long)
            tier_wgs[static_cast<size_t>(sim::ExecTier::LaneMajor)],
        (unsigned long long)
            tier_wgs[static_cast<size_t>(sim::ExecTier::Instrumented)],
        threads_env ? threads_env : "default",
        all_ok ? "true" : "false");
    return all_ok ? 0 : 1;
}
