/**
 * @file
 * Simulated GPU device descriptions and per-API driver profiles.
 *
 * A DeviceSpec captures the architectural parameters that the paper's
 * findings depend on (compute width, clock, DRAM bandwidth, coalescing
 * granularity, heap sizes) and one DriverProfile per programming model
 * capturing the *driver* behaviours the paper attributes differences
 * to: launch/submit/sync overheads, JIT/pipeline compile costs,
 * compiler maturity (local-memory promotion, code quality), and
 * platform quirks (Snapdragon's push-constant fallback, Nexus's weak
 * shared-memory codegen, outright driver failures for particular
 * kernels).
 *
 * Everything here is a *model input*: constants are set once per
 * device (with rationale) and never per-benchmark.  Every device is a
 * `.dev` spec file under `devices/` (sim/device_file.h,
 * docs/DEVICE_MODEL.md); the paper's four are also built into the
 * library from those files (deviceRegistry()).
 */

#ifndef VCB_SIM_DEVICE_H
#define VCB_SIM_DEVICE_H

#include <cstdint>
#include <string>
#include <vector>

namespace vcb::sim {

/** The three programming models under study. */
enum class Api { Vulkan = 0, OpenCl = 1, Cuda = 2 };

/** Number of APIs (array sizing). */
constexpr int apiCount = 3;

/** Printable API name. */
const char *apiName(Api api);

/** Per-(device, API) driver behaviour model. */
struct DriverProfile
{
    /** Whether this API is supported on the device at all. */
    bool available = false;
    /** Reported version string (Tables II/III). */
    std::string version;

    // ---- host-side overheads, all in nanoseconds -----------------------
    /** Cost of one kernel launch/enqueue call (CUDA launch, OpenCL
     *  clEnqueueNDRangeKernel).  Vulkan does not pay this per dispatch. */
    double launchOverheadNs = 0;
    /** Cost of one queue submission (vkQueueSubmit / implicit flush). */
    double submitOverheadNs = 0;
    /** Host latency to observe completion of a blocking wait
     *  (fence wait / clFinish / cudaDeviceSynchronize wakeup). */
    double syncWakeupNs = 0;
    /** OpenCL-style JIT: program build cost per IR instruction. */
    double jitBuildNsPerInsn = 0;
    /** Vulkan pipeline creation cost per IR instruction. */
    double pipelineCompileNsPerInsn = 0;

    // ---- device-side per-command costs (executed from a command
    //      buffer or implicitly per launch), nanoseconds ----------------
    double dispatchSetupNs = 0;   ///< per dispatch (work distribution)
    double barrierNs = 0;         ///< per pipeline/memory barrier
    double bindPipelineNs = 0;    ///< per compute-pipeline bind
    double bindDescSetNs = 0;     ///< per descriptor-set bind
    double pushConstantNs = 0;    ///< per push-constant update

    // ---- compiler maturity ---------------------------------------------
    /** Whether the kernel compiler honours MemFlagPromoteHint and keeps
     *  the marked accesses in on-chip memory.  The paper found OpenCL
     *  and CUDA compilers do, the young Vulkan SPIR-V compilers do not
     *  (bfs ISA comparison with CodeXL, Sec. V-A2). */
    bool localMemPromotion = false;
    /** ALU code-generation quality: multiplier on compute throughput. */
    double codeQuality = 1.0;
    /** Fraction of peak DRAM bandwidth this API's generated code and
     *  runtime achieve for streaming accesses. */
    double memEfficiency = 0.8;
    /** Multiplier on the device's memory-transaction issue rate; models
     *  small per-transaction savings of thinner runtimes. */
    double txEfficiency = 1.0;

    // ---- quirks -----------------------------------------------------------
    /** Snapdragon 625 quirk (paper Sec. V-B1): the driver implements
     *  push constants as ordinary buffer rebinds, charging
     *  bindDescSetNs for every vkCmdPushConstants. */
    bool pushConstantsAsBufferBind = false;
    /** Nexus/PowerVR quirk (paper Sec. V-B2): kernels that use
     *  workgroup shared memory compile to poor code; multiplier applied
     *  to codeQuality for such kernels. */
    double sharedMemCodegenFactor = 1.0;
    /** Kernels (by entry-point name) this driver fails to build/run —
     *  reproduces the paper's reported driver failures. */
    std::vector<std::string> brokenKernels;

    /**
     * Per-kernel execution-time multipliers (name-prefix matched),
     * for driver pathologies the paper reports without a mechanism
     * (e.g. the Nexus Vulkan driver's hotspot slowdown, Sec. V-B2).
     */
    std::vector<std::pair<std::string, double>> kernelTimeDerates;

    /**
     * Execution-time multiplier applied to kernels that use workgroup
     * shared memory — models immature drivers compiling local-memory
     * code poorly (the Snapdragon-wide Vulkan slowdowns, Sec. V-B2).
     */
    double sharedKernelTimeDerate = 1.0;

    /** True if this profile refuses the named kernel. */
    bool kernelBroken(const std::string &name) const;

    /** Combined execution-time multiplier for a kernel. */
    double kernelTimeFactor(const std::string &name,
                            bool uses_shared) const;
};

/** Architectural description of one simulated GPU. */
struct DeviceSpec
{
    std::string name;        ///< marketing name (Tables II/III)
    std::string vendor;
    std::string platform;    ///< host platform description
    bool mobile = false;

    // ---- compute ---------------------------------------------------------
    uint32_t computeUnits = 1;   ///< SMs / CUs / shader clusters
    uint32_t simdWidth = 32;     ///< lanes issued per CU per cycle
    uint32_t warpWidth = 32;     ///< coalescing / scheduling granularity
    double clockGhz = 1.0;

    // ---- memory system ------------------------------------------------------
    double peakBwGBs = 100.0;    ///< DRAM peak bandwidth (GB/s = B/ns)
    double sharedBwGBs = 400.0;  ///< aggregate on-chip/LDS bandwidth
    uint32_t cacheLineBytes = 64;
    double txPerNs = 1.5;        ///< max DRAM transactions per ns
    double dispatchLatencyNs = 3000; ///< fixed front-end latency/dispatch
    double atomicNsEach = 2.0;   ///< serialisation cost per atomic op

    // ---- heaps / transfer -----------------------------------------------------
    uint64_t deviceHeapBytes = 4ull << 30;
    uint64_t hostVisibleHeapBytes = 16ull << 30;
    double hostCopyBwGBs = 12.0; ///< PCIe for desktop, DRAM for mobile
    bool unifiedMemory = false;

    // ---- unified-memory paging (UVM) ------------------------------------
    // Only meaningful when unifiedMemory is true (the parser rejects
    // the keys otherwise).  With uvmOversubscription left at 1 the
    // device heap stays a hard cap — the paper parts' behaviour; > 1
    // lets allocations overflow into the shared pool up to
    // heap x factor, paying first-touch migration and a bandwidth
    // derate while oversubscribed (UVMBench/ALTIS-style modeling, see
    // docs/DEVICE_MODEL.md).
    /** Allocation cap as a multiple of deviceHeapBytes (1 = hard cap). */
    double uvmOversubscription = 1.0;
    /** Migration granularity (driver page size). */
    uint32_t uvmPageBytes = 65536;
    /** Transfer cost per migrated page on first device touch. */
    double uvmMigrationNsPerPage = 0;
    /** Fault-handling latency charged per migrated page. */
    double uvmFaultLatencyNs = 0;
    /** DRAM bandwidth multiplier while the working set oversubscribes
     *  the device heap (1 = no derate; smaller = slower). */
    double uvmOversubBwDerate = 1.0;

    /** True when allocations may overflow the device heap (paging). */
    bool uvmPagingEnabled() const
    {
        return unifiedMemory && uvmOversubscription > 1.0;
    }
    /** Total allocatable bytes: heap x oversubscription factor, never
     *  beyond the host-visible pool. */
    uint64_t uvmCapBytes() const;

    // ---- limits ------------------------------------------------------------
    uint32_t maxPushBytes = 256;
    uint32_t maxWorkgroupInvocations = 1024;
    uint32_t computeQueueCount = 1;
    uint32_t transferQueueCount = 1;

    /** One profile per Api (indexed by static_cast<int>(Api)). */
    DriverProfile apis[apiCount];

    /** Profile accessor with availability check left to the caller. */
    const DriverProfile &profile(Api api) const;

    /** Lanes retired per nanosecond = CUs * simdWidth * clockGhz. */
    double lanesPerNs() const;
};

/** The built-in paper devices, in Table II then Table III order: the
 *  `devices/<stem>.dev` files that VCB_BUILTIN_DEVICES (CMakeLists.txt)
 *  lists, embedded at build time and parsed on first use. */
const std::vector<DeviceSpec> &deviceRegistry();

/**
 * The devices the runtime front-ends enumerate (vkm's
 * vkEnumeratePhysicalDevices analogue and the OpenCL platform list):
 * the compiled-in paper parts by default, or whatever
 * setActiveDeviceRegistry() installed — the report pipeline's
 * spec-file registry (sim/device_file.h).
 *
 * The override is THREAD-SCOPED: each thread sees its own installed
 * registry (or the compiled-in default).  Tools that install one in
 * main() and run everything there behave exactly as before; serve
 * sessions (src/serve/) each install their own registry on their
 * worker thread, so concurrent sessions with different device
 * directories can never observe each other's devices.
 */
const std::vector<DeviceSpec> &activeDeviceRegistry();

/**
 * Install `devices` as the calling thread's active registry and return
 * the stored copies.  Benchmarks must run against these exact objects
 * (the Vulkan front-end resolves a DeviceSpec to a physical device by
 * identity), so callers keep references into the returned vector.
 * Call before creating any runtime context on this thread; the
 * thread's previous active registry storage is invalidated.
 */
const std::vector<DeviceSpec> &
setActiveDeviceRegistry(std::vector<DeviceSpec> devices);

/** Remove the calling thread's registry override: activeDeviceRegistry
 *  falls back to the compiled-in deviceRegistry().  Invalidates the
 *  storage returned by setActiveDeviceRegistry on this thread. */
void clearActiveDeviceRegistry();

/**
 * RAII registry override: installs `devices` on the calling thread for
 * the scope's lifetime, then restores the previous thread state
 * (a prior override's contents, or no override).  The serve layer
 * wraps every session worker in one of these.
 */
class ScopedDeviceRegistry
{
  public:
    explicit ScopedDeviceRegistry(std::vector<DeviceSpec> devices);
    ~ScopedDeviceRegistry();

    ScopedDeviceRegistry(const ScopedDeviceRegistry &) = delete;
    ScopedDeviceRegistry &operator=(const ScopedDeviceRegistry &) = delete;

    /** The installed (stored) device objects. */
    const std::vector<DeviceSpec> &devices() const;

  private:
    std::vector<DeviceSpec> saved;
    bool hadOverride = false;
};

/**
 * Find a device in the active registry by name, comparing only letters
 * (case-insensitively) and digits: an exact match wins, otherwise the
 * one device whose name contains `name`.  An empty, unknown or
 * ambiguous name returns null and, when `why` is non-null, stores the
 * reason (naming the candidates).
 */
const DeviceSpec *findDevice(const std::string &name,
                             std::string *why = nullptr);

/** findDevice, fatal with its reason when it finds no single device. */
const DeviceSpec &deviceByName(const std::string &name);

/** Registry ids used throughout benches: "gtx1050ti", "rx560",
 *  "adreno506", "g6430". */
const DeviceSpec &gtx1050ti();
const DeviceSpec &rx560();
const DeviceSpec &adreno506();
const DeviceSpec &powervrG6430();

} // namespace vcb::sim

#endif // VCB_SIM_DEVICE_H
