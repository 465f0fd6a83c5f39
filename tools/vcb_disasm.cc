/**
 * @file
 * vcb_disasm — kernel listing tool (the suite's CodeXL analogue).
 *
 * The paper diagnosed bfs's Vulkan slowdown by disassembling the
 * driver-generated ISA; this tool prints any suite kernel's IR
 * listing, its binary size, and how each driver compiler treats it on
 * a device (promotion honoured or not, code-quality factor, compile
 * cost):
 *
 *   vcb_disasm bfs_kernel1
 *   vcb_disasm hotspot_step --device adreno
 *   vcb_disasm --list
 */

#include <cstdio>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strutil.h"
#include "kernels/kernels.h"
#include "sim/kernel.h"
#include "spirv/module.h"

using namespace vcb;

int
main(int argc, char **argv)
{
    std::string name;
    std::string device_name = "gtx1050ti";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            std::vector<std::string> names;
            for (const auto &[k, fn] : kernels::kernelRegistry())
                names.push_back(k);
            std::sort(names.begin(), names.end());
            for (const auto &k : names)
                std::printf("%s\n", k.c_str());
            return 0;
        }
        if (arg == "--device") {
            if (i + 1 >= argc)
                fatal("missing value for --device");
            device_name = argv[++i];
        } else {
            name = arg;
        }
    }
    if (name.empty()) {
        std::printf("usage: vcb_disasm KERNEL [--device NAME] | "
                    "--list\n");
        return 1;
    }

    const auto &reg = kernels::kernelRegistry();
    if (std::none_of(reg.begin(), reg.end(),
                     [&](const auto &e) { return e.first == name; }))
        fatal("unknown kernel '%s' (try --list)", name.c_str());
    spirv::Module m = kernels::buildByName(name);

    std::vector<uint32_t> words = m.serialize();
    std::printf("%s\n", spirv::disassemble(m).c_str());
    std::printf("; binary: %zu words (%s), %zu instructions\n",
                words.size(), formatBytes(words.size() * 4).c_str(),
                m.insnCount());

    const sim::DeviceSpec &dev = sim::deviceByName(device_name);
    std::printf("\n; driver compilation on %s:\n", dev.name.c_str());
    std::unique_ptr<sim::CompiledKernel> lowered;
    for (sim::Api api :
         {sim::Api::Vulkan, sim::Api::OpenCl, sim::Api::Cuda}) {
        if (!dev.profile(api).available) {
            std::printf(";   %-7s not available\n", sim::apiName(api));
            continue;
        }
        std::string err;
        auto k = sim::compileKernel(m, dev, api, &err);
        if (!k) {
            std::printf(";   %-7s REJECTED: %s\n", sim::apiName(api),
                        err.c_str());
            continue;
        }
        std::printf(";   %-7s promote-hints=%s quality=%.2f "
                    "compile=%s\n",
                    sim::apiName(api), k->promoted ? "honoured" : "ignored",
                    k->codeQualityEff,
                    formatNs(k->compileNs).c_str());
        if (!lowered)
            lowered = std::move(k);
    }

    // Micro-op lowering (API-independent): the stream the interpreter
    // executes, with fused pairs, SuperLoops and hoisted template ops
    // rendered symbolically.
    if (lowered) {
        std::printf("\n; micro-op lowering (executor tier: %s):\n",
                    sim::execTierName(
                        sim::chooseExecTier(*lowered->micro)));
        std::printf("%s", sim::disassembleMicro(*lowered->micro).c_str());
    }
    return 0;
}
