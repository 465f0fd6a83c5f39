#include "probes.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

#include "sim/engine.h"
#include "sim/kernel.h"
#include "suite/workload.h"

using namespace vcb;

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};

struct AtomicTotals
{
    std::atomic<uint64_t> runs[3]{}, runnerNs[3]{}, runnerDispatchNs[3]{},
        runnerCompileNs[3]{}, runnerValidateNs[3]{};
    std::atomic<uint64_t> compileNs{0}, launches{0}, kernelRegionNs{0},
        deviceBusyNs{0}, migratedBytes{0}, faultNs{0};
};
AtomicTotals g_totals;

std::mutex g_ledgerMtx;
std::vector<SweepLedger> g_ledgers;

/** Per-thread state: compile time so far, runner wall so far, the
 *  label of the last runner call, and runner nesting depth. */
thread_local uint64_t t_compileNs = 0;
thread_local uint64_t t_runnerNs = 0;
thread_local std::string t_label;
thread_local int t_depth = 0;

uint64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
add(std::atomic<uint64_t> &a, uint64_t v)
{
    a.fetch_add(v, std::memory_order_relaxed);
}

/**
 * Time one runner call.  Workload::validate is a std::function member,
 * so its time is measured by swapping in a timing shim for the call's
 * duration; every caller passes a non-const Workload (a local or a
 * temporary), so the const_cast modifies no const object.
 */
template <typename Call>
suite::RunResult
tracedRun(const suite::Workload &w, const sim::DeviceSpec &dev,
          sim::Api api, const suite::WorkloadOptions &opts, Call &&call)
{
    if (t_depth > 0)
        return call();
    /** Puts the caller's validate back and unwinds the depth on every
     *  way out of this call. */
    struct Shim
    {
        explicit Shim(suite::Workload &w) : w(w), inner(std::move(w.validate))
        {
            ++t_depth;
        }
        ~Shim()
        {
            w.validate = std::move(inner);
            --t_depth;
        }
        Shim(const Shim &) = delete;
        Shim &operator=(const Shim &) = delete;

        suite::Workload &w;
        std::function<std::string(const suite::HostArrays &)> inner;
    } shim(const_cast<suite::Workload &>(w));
    uint64_t validate_ns = 0;
    if (shim.inner)
        shim.w.validate = [&](const suite::HostArrays &h) {
            const uint64_t v0 = nowNs();
            std::string verdict = shim.inner(h);
            validate_ns += nowNs() - v0;
            return verdict;
        };
    const uint64_t d0 = sim::dispatchWallNsThisThread();
    const uint64_t c0 = t_compileNs;
    const uint64_t t0 = nowNs();
    suite::RunResult r = call();
    const uint64_t wall = nowNs() - t0;

    const size_t a = static_cast<size_t>(api);
    add(g_totals.runs[a], 1);
    add(g_totals.runnerNs[a], wall);
    add(g_totals.runnerDispatchNs[a], sim::dispatchWallNsThisThread() - d0);
    add(g_totals.runnerCompileNs[a], t_compileNs - c0);
    add(g_totals.runnerValidateNs[a], validate_ns);
    add(g_totals.launches, r.launches);
    add(g_totals.kernelRegionNs, static_cast<uint64_t>(r.kernelRegionNs));
    add(g_totals.deviceBusyNs, static_cast<uint64_t>(r.deviceBusyNs));
    add(g_totals.migratedBytes, r.migratedBytes);
    add(g_totals.faultNs, static_cast<uint64_t>(r.faultNs));
    t_runnerNs += wall;
    t_label = dev.name + "/" + w.name + "/" + sim::apiName(api);
    if (opts.queueCount)
        t_label += "/q" + std::to_string(opts.queueCount);
    return r;
}

} // namespace

void
setTracing(bool on)
{
    g_tracing.store(on);
}

ProbeTotals
probeTotals()
{
    ProbeTotals t;
    auto ld = [](const std::atomic<uint64_t> &a) {
        return a.load(std::memory_order_relaxed);
    };
    for (size_t a = 0; a < 3; ++a) {
        t.runs[a] = ld(g_totals.runs[a]);
        t.runnerNs[a] = ld(g_totals.runnerNs[a]);
        t.runnerDispatchNs[a] = ld(g_totals.runnerDispatchNs[a]);
        t.runnerCompileNs[a] = ld(g_totals.runnerCompileNs[a]);
        t.runnerValidateNs[a] = ld(g_totals.runnerValidateNs[a]);
    }
    t.compileNs = ld(g_totals.compileNs);
    t.launches = ld(g_totals.launches);
    t.kernelRegionNs = ld(g_totals.kernelRegionNs);
    t.deviceBusyNs = ld(g_totals.deviceBusyNs);
    t.migratedBytes = ld(g_totals.migratedBytes);
    t.faultNs = ld(g_totals.faultNs);
    return t;
}

ProbeTotals
operator-(const ProbeTotals &a, const ProbeTotals &b)
{
    ProbeTotals d;
    for (size_t i = 0; i < 3; ++i) {
        d.runs[i] = a.runs[i] - b.runs[i];
        d.runnerNs[i] = a.runnerNs[i] - b.runnerNs[i];
        d.runnerDispatchNs[i] = a.runnerDispatchNs[i] - b.runnerDispatchNs[i];
        d.runnerCompileNs[i] = a.runnerCompileNs[i] - b.runnerCompileNs[i];
        d.runnerValidateNs[i] = a.runnerValidateNs[i] - b.runnerValidateNs[i];
    }
    d.compileNs = a.compileNs - b.compileNs;
    d.launches = a.launches - b.launches;
    d.kernelRegionNs = a.kernelRegionNs - b.kernelRegionNs;
    d.deviceBusyNs = a.deviceBusyNs - b.deviceBusyNs;
    d.migratedBytes = a.migratedBytes - b.migratedBytes;
    d.faultNs = a.faultNs - b.faultNs;
    return d;
}

std::vector<SweepLedger>
takeSweepLedgers()
{
    std::lock_guard<std::mutex> lk(g_ledgerMtx);
    return std::exchange(g_ledgers, {});
}

// ---------------------------------------------------------------------------
// Linker wrappers.  The asm labels give each wrapper the symbol name
// `--wrap` resolves the library's calls to, and each __real_ label the
// original definition; the mangled names must match CMakeLists.txt.
// ---------------------------------------------------------------------------

using HostArraysPtr = suite::HostArrays *;

harness::SweepStats realRunSweepPlan(size_t, const std::function<void(size_t)> &,
                                     const harness::SweepOptions &) __asm__(
    "__real__ZN3vcb7harness12runSweepPlanEmRKSt8functionIFvmEERKNS0_"
    "12SweepOptionsE");
harness::SweepStats wrapRunSweepPlan(size_t, const std::function<void(size_t)> &,
                                     const harness::SweepOptions &) __asm__(
    "__wrap__ZN3vcb7harness12runSweepPlanEmRKSt8functionIFvmEERKNS0_"
    "12SweepOptionsE");

suite::RunResult realRunWorkload(const suite::Workload &,
                                 const sim::DeviceSpec &, sim::Api,
                                 const suite::WorkloadOptions &,
                                 HostArraysPtr) __asm__(
    "__real__ZN3vcb5suite11runWorkloadERKNS0_8WorkloadERKNS_3sim10DeviceSpec"
    "ENS4_3ApiERKNS0_15WorkloadOptionsEPSt6vectorISC_IjSaIjEESaISE_EE");
suite::RunResult wrapRunWorkload(const suite::Workload &,
                                 const sim::DeviceSpec &, sim::Api,
                                 const suite::WorkloadOptions &,
                                 HostArraysPtr) __asm__(
    "__wrap__ZN3vcb5suite11runWorkloadERKNS0_8WorkloadERKNS_3sim10DeviceSpec"
    "ENS4_3ApiERKNS0_15WorkloadOptionsEPSt6vectorISC_IjSaIjEESaISE_EE");

suite::RunResult realRunWorkloadVulkan(const suite::Workload &,
                                       const sim::DeviceSpec &,
                                       const suite::WorkloadOptions &,
                                       HostArraysPtr) __asm__(
    "__real__ZN3vcb5suite17runWorkloadVulkanERKNS0_8WorkloadERKNS_3sim10"
    "DeviceSpecERKNS0_15WorkloadOptionsEPSt6vectorISB_IjSaIjEESaISD_EE");
suite::RunResult wrapRunWorkloadVulkan(const suite::Workload &,
                                       const sim::DeviceSpec &,
                                       const suite::WorkloadOptions &,
                                       HostArraysPtr) __asm__(
    "__wrap__ZN3vcb5suite17runWorkloadVulkanERKNS0_8WorkloadERKNS_3sim10"
    "DeviceSpecERKNS0_15WorkloadOptionsEPSt6vectorISB_IjSaIjEESaISD_EE");

std::unique_ptr<sim::CompiledKernel>
realCompileKernel(const spirv::Module &, const sim::DeviceSpec &, sim::Api,
                  std::string *) __asm__(
    "__real__ZN3vcb3sim13compileKernelERKNS_5spirv6ModuleERKNS0_10DeviceSpec"
    "ENS0_3ApiEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
std::unique_ptr<sim::CompiledKernel>
wrapCompileKernel(const spirv::Module &, const sim::DeviceSpec &, sim::Api,
                  std::string *) __asm__(
    "__wrap__ZN3vcb3sim13compileKernelERKNS_5spirv6ModuleERKNS0_10DeviceSpec"
    "ENS0_3ApiEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");

harness::SweepStats
wrapRunSweepPlan(size_t cells, const std::function<void(size_t)> &fn,
                 const harness::SweepOptions &opts)
{
    SweepLedger ledger;
    if (!g_tracing.load()) {
        ledger.stats = realRunSweepPlan(cells, fn, opts);
    } else {
        ledger.label.assign(cells, "");
        ledger.runnerMs.assign(cells, 0.0);
        ledger.stats = realRunSweepPlan(
            cells,
            [&](size_t c) {
                t_label.clear();
                const uint64_t r0 = t_runnerNs;
                fn(c);
                ledger.label[c] = t_label;
                ledger.runnerMs[c] = double(t_runnerNs - r0) / 1e6;
            },
            opts);
    }
    harness::SweepStats stats = ledger.stats;
    std::lock_guard<std::mutex> lk(g_ledgerMtx);
    g_ledgers.push_back(std::move(ledger));
    return stats;
}

suite::RunResult
wrapRunWorkload(const suite::Workload &w, const sim::DeviceSpec &dev,
                sim::Api api, const suite::WorkloadOptions &opts,
                HostArraysPtr host_out)
{
    auto call = [&] { return realRunWorkload(w, dev, api, opts, host_out); };
    if (!g_tracing.load())
        return call();
    return tracedRun(w, dev, api, opts, call);
}

suite::RunResult
wrapRunWorkloadVulkan(const suite::Workload &w, const sim::DeviceSpec &dev,
                      const suite::WorkloadOptions &opts,
                      HostArraysPtr host_out)
{
    auto call = [&] {
        return realRunWorkloadVulkan(w, dev, opts, host_out);
    };
    if (!g_tracing.load())
        return call();
    return tracedRun(w, dev, sim::Api::Vulkan, opts, call);
}

std::unique_ptr<sim::CompiledKernel>
wrapCompileKernel(const spirv::Module &m, const sim::DeviceSpec &dev,
                  sim::Api api, std::string *err)
{
    if (!g_tracing.load())
        return realCompileKernel(m, dev, api, err);
    const uint64_t t0 = nowNs();
    auto k = realCompileKernel(m, dev, api, err);
    const uint64_t ns = nowNs() - t0;
    t_compileNs += ns;
    add(g_totals.compileNs, ns);
    return k;
}

} // namespace perfbench
