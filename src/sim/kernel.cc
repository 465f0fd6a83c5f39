#include "sim/kernel.h"

#include <chrono>
#include <ctime>

#include "common/logging.h"
#include "common/strutil.h"
#include "sim/compile_cache.h"

namespace vcb::sim {

uint32_t
CompiledKernel::localCount() const
{
    return module.localSize[0] * module.localSize[1] * module.localSize[2];
}

namespace {

std::unique_ptr<CompiledKernel>
compileKernelImpl(const spirv::Module &m, const DeviceSpec &dev, Api api,
                  std::string *errorOut)
{
    auto fail = [&](const std::string &msg) {
        if (errorOut)
            *errorOut = msg;
        return nullptr;
    };

    // Content-addressed compile cache (sim/compile_cache.h).  Only
    // SUCCESSFUL compiles are cached, and every input to the failure
    // checks below (module content, device spec, API) is part of the
    // key, so a hit can skip them: the same inputs passed before.
    bool useCache = CompileCache::globalEnabled();
    CompileCacheKey cacheKey;
    if (useCache) {
        cacheKey = makeCompileCacheKey(m, dev, api);
        if (auto cached = CompileCache::global().lookup(cacheKey)) {
            if (errorOut)
                errorOut->clear();
            return cached;
        }
    }

    const DriverProfile &prof = dev.profile(api);
    if (!prof.available)
        return fail(strprintf("%s is not available on %s", apiName(api),
                              dev.name.c_str()));
    if (prof.kernelBroken(m.name))
        return fail(strprintf("driver failure: %s %s rejects kernel '%s'",
                              dev.name.c_str(), apiName(api),
                              m.name.c_str()));

    std::string verr;
    if (!spirv::validate(m, &verr))
        return fail("module validation failed: " + verr);

    uint32_t local = m.localSize[0] * m.localSize[1] * m.localSize[2];
    if (local > dev.maxWorkgroupInvocations)
        return fail(strprintf("workgroup size %u exceeds device limit %u",
                              local, dev.maxWorkgroupInvocations));
    if (m.pushWords * 4 > dev.maxPushBytes)
        return fail(strprintf("push block %u B exceeds device limit %u B",
                              m.pushWords * 4, dev.maxPushBytes));

    auto k = std::make_unique<CompiledKernel>();
    k->module = m;
    k->insns = m.decode();
    k->api = api;

    // Build the global-memory site table.
    k->siteOfInsn.assign(k->insns.size(), 0);
    bool anyHint = false;
    for (size_t i = 0; i < k->insns.size(); ++i) {
        const spirv::Insn &insn = k->insns[i];
        bool isMem = false;
        uint32_t flags = 0;
        switch (insn.op) {
          case spirv::Op::LdBuf:
            isMem = true;
            flags = insn.d;
            break;
          case spirv::Op::StBuf:
            isMem = true;
            flags = insn.d;
            break;
          case spirv::Op::AtomIAdd:
          case spirv::Op::AtomIMin:
          case spirv::Op::AtomIMax:
          case spirv::Op::AtomIOr:
            isMem = true;
            break;
          default:
            break;
        }
        if (!isMem)
            continue;
        k->siteOfInsn[i] = ++k->numSites;
        bool hinted = (flags & spirv::MemFlagPromoteHint) != 0;
        k->sitePromote.push_back(hinted ? 1 : 0);
        anyHint = anyHint || hinted;
    }

    // Apply the driver profile.
    k->promoted = prof.localMemPromotion && anyHint;
    k->codeQualityEff = prof.codeQuality;
    if (m.sharedWords > 0)
        k->codeQualityEff *= prof.sharedMemCodegenFactor;

    double perInsn = (api == Api::OpenCl)   ? prof.jitBuildNsPerInsn
                     : (api == Api::Vulkan) ? prof.pipelineCompileNsPerInsn
                                            : 0.0;
    k->compileNs = perInsn * static_cast<double>(k->insns.size());

    // Lower to the executable micro-op form (see microop.h).  Runs
    // after the site table is built: site slots are baked into the
    // micro-ops.
    lowerKernel(*k, compileLowerOptions());

    if (useCache)
        CompileCache::global().insert(cacheKey, *k);

    if (errorOut)
        errorOut->clear();
    return k;
}

} // namespace

namespace {

/** Per-thread CPU nanoseconds: immune to preemption, so per-call cost
 *  stays meaningful while other sessions saturate the machine. */
uint64_t
threadCpuNs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<uint64_t>(ts.tv_nsec);
#endif
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::unique_ptr<CompiledKernel>
compileKernel(const spirv::Module &m, const DeviceSpec &dev, Api api,
              std::string *errorOut)
{
    // CPU-time accounting feeds the serve layer's cache ablation
    // (vcb_load): the off/warm delta of this counter IS the latency
    // the cache removes from request service time.
    uint64_t t0 = threadCpuNs();
    auto k = compileKernelImpl(m, dev, api, errorOut);
    CompileCache::global().recordCompileCpu(threadCpuNs() - t0);
    return k;
}

} // namespace vcb::sim
