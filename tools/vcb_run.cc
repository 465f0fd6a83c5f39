/**
 * @file
 * vcb_run — command-line front end for the suite.
 *
 * Run any benchmark on any simulated device under any API:
 *
 *   vcb_run --bench pathfinder --device gtx1050ti --api vulkan
 *   vcb_run --bench bfs --device adreno --api opencl --size 1
 *   vcb_run --bench gaussian --params 96 --api all
 *   vcb_run --list
 *
 * --size selects a desktop size index (0..2) or mobile index for
 * mobile devices; --params overrides the size parameters directly.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strutil.h"
#include "harness/report.h"
#include "suite/benchmark.h"

using namespace vcb;

namespace {

void
usage()
{
    std::printf(
        "usage: vcb_run [--list] --bench NAME [--device NAME]\n"
        "               [--api vulkan|opencl|cuda|all] [--size IDX]\n"
        "               [--params P1,P2,...]\n");
}

sim::Api
parseApi(const std::string &s)
{
    std::string l = toLower(s);
    if (l == "vulkan" || l == "vk")
        return sim::Api::Vulkan;
    if (l == "opencl" || l == "cl")
        return sim::Api::OpenCl;
    if (l == "cuda" || l == "cu")
        return sim::Api::Cuda;
    fatal("unknown API '%s'", s.c_str());
}

void
listEverything()
{
    harness::Table benches({"bench", "application", "desktop sizes",
                            "mobile sizes"});
    for (const suite::Benchmark *b : suite::registry()) {
        std::string desk, mob;
        for (const auto &s : b->desktopSizes())
            desk += s.label + " ";
        for (const auto &s : b->mobileSizes())
            mob += s.label + " ";
        if (mob.empty())
            mob = "(none)";
        benches.addRow({b->name(), b->fullName(), desk, mob});
    }
    std::printf("%s\n", benches.render().c_str());

    harness::Table devs({"device", "class", "Vulkan", "OpenCL", "CUDA"});
    for (const auto &d : sim::deviceRegistry()) {
        auto yn = [&](sim::Api api) {
            return d.profile(api).available ? "yes" : "-";
        };
        devs.addRow({d.name, d.mobile ? "mobile" : "desktop",
                     yn(sim::Api::Vulkan), yn(sim::Api::OpenCl),
                     yn(sim::Api::Cuda)});
    }
    std::printf("%s", devs.render().c_str());
}

void
runOne(const suite::Benchmark &bench, const sim::DeviceSpec &dev,
       sim::Api api, const suite::SizeConfig &cfg)
{
    suite::RunResult r = bench.run(dev, api, cfg);
    if (!r.ok) {
        std::printf("%-7s SKIPPED: %s\n", sim::apiName(api),
                    r.skipReason.c_str());
        return;
    }
    std::printf("%-7s kernel region %-12s total %-12s launches %-6llu "
                "%s\n",
                sim::apiName(api), formatNs(r.kernelRegionNs).c_str(),
                formatNs(r.totalNs).c_str(),
                (unsigned long long)r.launches,
                r.validated ? "VALIDATED"
                            : ("INVALID: " + r.validationError).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_name, device_name = "gtx1050ti", api_str = "all";
    std::string params_str;
    size_t size_idx = 0;
    bool list = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--list")
            list = true;
        else if (arg == "--bench")
            bench_name = next();
        else if (arg == "--device")
            device_name = next();
        else if (arg == "--api")
            api_str = next();
        else if (arg == "--size")
            size_idx = parseCount("--size", next(), 0, 1000);
        else if (arg == "--params")
            params_str = next();
        else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    if (list) {
        listEverything();
        return 0;
    }
    if (bench_name.empty()) {
        usage();
        return 1;
    }

    const suite::Benchmark &bench = suite::byName(bench_name);
    const sim::DeviceSpec &dev = sim::deviceByName(device_name);

    suite::SizeConfig cfg;
    if (!params_str.empty()) {
        cfg.label = "custom";
        for (const std::string &p : split(params_str, ','))
            cfg.params.push_back(parseSize(p));
    } else {
        auto sizes = bench.sizesFor(dev);
        if (sizes.empty())
            fatal("%s has no sizes for %s: %s", bench_name.c_str(),
                  dev.name.c_str(), bench.mobileSkipReason(dev).c_str());
        if (size_idx >= sizes.size())
            fatal("--size %zu out of range (%zu sizes)", size_idx,
                  sizes.size());
        cfg = sizes[size_idx];
    }

    std::printf("%s [%s] on %s, size '%s'\n", bench_name.c_str(),
                bench.fullName().c_str(), dev.name.c_str(),
                cfg.label.c_str());
    if (api_str == "all") {
        for (sim::Api api :
             {sim::Api::OpenCl, sim::Api::Vulkan, sim::Api::Cuda}) {
            if (dev.profile(api).available)
                runOne(bench, dev, api, cfg);
        }
    } else {
        runOne(bench, dev, parseApi(api_str), cfg);
    }
    return 0;
}
