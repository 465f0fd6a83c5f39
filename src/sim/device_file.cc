#include "sim/device_file.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/strutil.h"

namespace vcb::sim {

namespace {

// ---------------------------------------------------------------------------
// Field table: one description per serializable field, shared by the
// serializer and the parser so the two can never drift.  The pointers
// are into one specific DeviceSpec, so tables are built per call.
// ---------------------------------------------------------------------------

enum class FieldKind { Str, Bool, U32, U64, Dbl };

struct FieldRef
{
    const char *key;
    FieldKind kind;
    void *p;
    /** Numeric validity range; min is exclusive when strictMin. */
    double min = 0, max = 0;
    bool strictMin = false;
};

std::vector<FieldRef>
deviceFields(DeviceSpec &d)
{
    return {
        {"name", FieldKind::Str, &d.name},
        {"vendor", FieldKind::Str, &d.vendor},
        {"platform", FieldKind::Str, &d.platform},
        {"mobile", FieldKind::Bool, &d.mobile},
        {"compute_units", FieldKind::U32, &d.computeUnits, 1, 4096},
        {"simd_width", FieldKind::U32, &d.simdWidth, 1, 4096},
        {"warp_width", FieldKind::U32, &d.warpWidth, 1, 4096},
        {"clock_ghz", FieldKind::Dbl, &d.clockGhz, 0, 100, true},
        {"peak_bw_gbs", FieldKind::Dbl, &d.peakBwGBs, 0, 1e5, true},
        {"shared_bw_gbs", FieldKind::Dbl, &d.sharedBwGBs, 0, 1e6, true},
        {"cache_line_bytes", FieldKind::U32, &d.cacheLineBytes, 4, 4096},
        {"tx_per_ns", FieldKind::Dbl, &d.txPerNs, 0, 1e4, true},
        {"dispatch_latency_ns", FieldKind::Dbl, &d.dispatchLatencyNs, 0,
         1e9},
        {"atomic_ns_each", FieldKind::Dbl, &d.atomicNsEach, 0, 1e6},
        {"device_heap_bytes", FieldKind::U64, &d.deviceHeapBytes, 1,
         1e15},
        {"host_visible_heap_bytes", FieldKind::U64,
         &d.hostVisibleHeapBytes, 1, 1e15},
        {"host_copy_bw_gbs", FieldKind::Dbl, &d.hostCopyBwGBs, 0, 1e5,
         true},
        {"unified_memory", FieldKind::Bool, &d.unifiedMemory},
        {"max_push_bytes", FieldKind::U32, &d.maxPushBytes, 4, 65536},
        {"max_workgroup_invocations", FieldKind::U32,
         &d.maxWorkgroupInvocations, 1, 1u << 20},
        {"compute_queue_count", FieldKind::U32, &d.computeQueueCount, 1,
         256},
        {"transfer_queue_count", FieldKind::U32, &d.transferQueueCount,
         1, 256},
    };
}

/** UVM paging fields: serialized (and hashed) only for unified-memory
 *  parts; the parser rejects them on `unified_memory = false` specs. */
std::vector<FieldRef>
uvmFields(DeviceSpec &d)
{
    return {
        {"uvm_oversubscription", FieldKind::Dbl, &d.uvmOversubscription,
         1, 256},
        {"uvm_page_bytes", FieldKind::U32, &d.uvmPageBytes, 256,
         1u << 24},
        {"uvm_migration_ns_per_page", FieldKind::Dbl,
         &d.uvmMigrationNsPerPage, 0, 1e9},
        {"uvm_fault_latency_ns", FieldKind::Dbl, &d.uvmFaultLatencyNs,
         0, 1e9},
        {"uvm_oversub_bw_derate", FieldKind::Dbl, &d.uvmOversubBwDerate,
         0, 1, true},
    };
}

std::vector<FieldRef>
profileFields(DriverProfile &p)
{
    return {
        {"available", FieldKind::Bool, &p.available},
        {"version", FieldKind::Str, &p.version},
        {"launch_overhead_ns", FieldKind::Dbl, &p.launchOverheadNs, 0,
         1e12},
        {"submit_overhead_ns", FieldKind::Dbl, &p.submitOverheadNs, 0,
         1e12},
        {"sync_wakeup_ns", FieldKind::Dbl, &p.syncWakeupNs, 0, 1e12},
        {"jit_build_ns_per_insn", FieldKind::Dbl, &p.jitBuildNsPerInsn,
         0, 1e12},
        {"pipeline_compile_ns_per_insn", FieldKind::Dbl,
         &p.pipelineCompileNsPerInsn, 0, 1e12},
        {"dispatch_setup_ns", FieldKind::Dbl, &p.dispatchSetupNs, 0,
         1e12},
        {"barrier_ns", FieldKind::Dbl, &p.barrierNs, 0, 1e12},
        {"bind_pipeline_ns", FieldKind::Dbl, &p.bindPipelineNs, 0, 1e12},
        {"bind_desc_set_ns", FieldKind::Dbl, &p.bindDescSetNs, 0, 1e12},
        {"push_constant_ns", FieldKind::Dbl, &p.pushConstantNs, 0, 1e12},
        {"local_mem_promotion", FieldKind::Bool, &p.localMemPromotion},
        {"code_quality", FieldKind::Dbl, &p.codeQuality, 0, 100, true},
        {"mem_efficiency", FieldKind::Dbl, &p.memEfficiency, 0, 1, true},
        {"tx_efficiency", FieldKind::Dbl, &p.txEfficiency, 0, 100, true},
        {"push_constants_as_buffer_bind", FieldKind::Bool,
         &p.pushConstantsAsBufferBind},
        {"shared_mem_codegen_factor", FieldKind::Dbl,
         &p.sharedMemCodegenFactor, 0, 100, true},
        {"shared_kernel_time_derate", FieldKind::Dbl,
         &p.sharedKernelTimeDerate, 0, 1000, true},
    };
}

const char *kSectionNames[apiCount] = {"vulkan", "opencl", "cuda"};

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/** Shortest decimal form that parses back to the identical double, so
 *  a serialize -> parse round trip is bit-exact. */
std::string
fmtDouble(double v)
{
    for (int prec = 15; prec <= 17; ++prec) {
        std::string s = strprintf("%.*g", prec, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            return s;
    }
    return strprintf("%.17g", v);
}

std::string
fieldValue(const FieldRef &f)
{
    switch (f.kind) {
    case FieldKind::Str:
        return *static_cast<std::string *>(f.p);
    case FieldKind::Bool:
        return *static_cast<bool *>(f.p) ? "true" : "false";
    case FieldKind::U32:
        return strprintf("%u", *static_cast<uint32_t *>(f.p));
    case FieldKind::U64:
        return strprintf("%llu", (unsigned long long)*static_cast<
                                     uint64_t *>(f.p));
    case FieldKind::Dbl:
        return fmtDouble(*static_cast<double *>(f.p));
    }
    panic("unreachable field kind");
}

void
emitFields(std::string &out, const std::vector<FieldRef> &fields)
{
    for (const FieldRef &f : fields)
        out += strprintf("%s = %s\n", f.key, fieldValue(f).c_str());
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/** Parser state: field tables point into `spec`. */
struct Parser
{
    DeviceSpec spec;
    std::string err;

    bool fail(int line, const std::string &msg)
    {
        err = line > 0 ? strprintf("line %d: %s", line, msg.c_str())
                       : msg;
        return false;
    }

    bool setField(const FieldRef &f, const std::string &value, int line);
    bool setListField(DriverProfile &p, const std::string &key,
                      const std::string &value, int line, bool *handled);
    bool parse(const std::string &text);
};

bool
Parser::setField(const FieldRef &f, const std::string &value, int line)
{
    auto rangeFail = [&](const std::string &got) {
        const char *open = f.strictMin ? "(" : "[";
        return fail(line,
                    strprintf("'%s' out of range: %s (must be in %s%s, "
                              "%s])",
                              f.key, got.c_str(), open,
                              fmtDouble(f.min).c_str(),
                              fmtDouble(f.max).c_str()));
    };
    switch (f.kind) {
    case FieldKind::Str:
        *static_cast<std::string *>(f.p) = value;
        return true;
    case FieldKind::Bool:
        if (value == "true")
            *static_cast<bool *>(f.p) = true;
        else if (value == "false")
            *static_cast<bool *>(f.p) = false;
        else
            return fail(line, strprintf("'%s' expects true or false, "
                                        "got '%s'",
                                        f.key, value.c_str()));
        return true;
    case FieldKind::U32:
    case FieldKind::U64: {
        char *end = nullptr;
        errno = 0;
        unsigned long long v = std::strtoull(value.c_str(), &end, 10);
        if (value.empty() || *end != '\0' || errno != 0 ||
            value[0] == '-')
            return fail(line, strprintf("'%s' expects an unsigned "
                                        "integer, got '%s'",
                                        f.key, value.c_str()));
        if (static_cast<double>(v) < f.min ||
            static_cast<double>(v) > f.max)
            return rangeFail(value);
        if (f.kind == FieldKind::U32)
            *static_cast<uint32_t *>(f.p) = static_cast<uint32_t>(v);
        else
            *static_cast<uint64_t *>(f.p) = v;
        return true;
    }
    case FieldKind::Dbl: {
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (value.empty() || *end != '\0' || !std::isfinite(v))
            return fail(line, strprintf("'%s' expects a finite number, "
                                        "got '%s'",
                                        f.key, value.c_str()));
        bool below = f.strictMin ? v <= f.min : v < f.min;
        if (below || v > f.max)
            return rangeFail(value);
        *static_cast<double *>(f.p) = v;
        return true;
    }
    }
    panic("unreachable field kind");
}

/** The two list-valued profile keys, serialized as comma lists. */
bool
Parser::setListField(DriverProfile &p, const std::string &key,
                     const std::string &value, int line, bool *handled)
{
    *handled = true;
    if (key == "broken_kernels") {
        p.brokenKernels.clear();
        for (const std::string &item : split(value, ',')) {
            std::string name = trim(item);
            if (name.empty())
                return fail(line, "'broken_kernels' has an empty entry");
            p.brokenKernels.push_back(name);
        }
        return true;
    }
    if (key == "kernel_time_derates") {
        p.kernelTimeDerates.clear();
        for (const std::string &item : split(value, ',')) {
            std::string entry = trim(item);
            size_t colon = entry.find(':');
            if (colon == std::string::npos || colon == 0)
                return fail(line,
                            strprintf("'kernel_time_derates' entry "
                                      "'%s' is not name:factor",
                                      entry.c_str()));
            std::string name = trim(entry.substr(0, colon));
            std::string num = trim(entry.substr(colon + 1));
            char *end = nullptr;
            double factor = std::strtod(num.c_str(), &end);
            if (num.empty() || *end != '\0' || !std::isfinite(factor) ||
                factor <= 0)
                return fail(line,
                            strprintf("'kernel_time_derates' factor "
                                      "'%s' must be a positive number",
                                      num.c_str()));
            p.kernelTimeDerates.push_back({name, factor});
        }
        return true;
    }
    *handled = false;
    return true;
}

bool
Parser::parse(const std::string &text)
{
    auto dev_fields = deviceFields(spec);
    auto uvm_fields = uvmFields(spec);
    // -1 = device preamble, else the api index of the open section.
    int section = -1;
    bool seen_section[apiCount] = {false, false, false};
    std::vector<std::string> seen_keys;
    // First UVM key seen, validated against unified_memory at the end
    // of the parse (the keys may precede the unified_memory line).
    int uvm_line = 0;
    std::string uvm_key;

    std::istringstream in(text);
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
        ++line;
        std::string s = trim(raw);
        if (s.empty() || s[0] == '#')
            continue;

        if (s.front() == '[') {
            if (s.back() != ']')
                return fail(line, strprintf("malformed section header "
                                            "'%s'",
                                            s.c_str()));
            std::string name = toLower(trim(s.substr(1, s.size() - 2)));
            int api = -1;
            for (int a = 0; a < apiCount; ++a)
                if (name == kSectionNames[a])
                    api = a;
            if (api < 0)
                return fail(line, strprintf("unknown section '[%s]' "
                                            "(expected [vulkan], "
                                            "[opencl] or [cuda])",
                                            name.c_str()));
            if (seen_section[api])
                return fail(line, strprintf("duplicate section '[%s]'",
                                            name.c_str()));
            seen_section[api] = true;
            section = api;
            seen_keys.clear();
            continue;
        }

        size_t eq = s.find('=');
        if (eq == std::string::npos)
            return fail(line, strprintf("expected 'key = value' or a "
                                        "'[section]' header, got '%s'",
                                        s.c_str()));
        std::string key = trim(s.substr(0, eq));
        std::string value = trim(s.substr(eq + 1));
        if (key.empty())
            return fail(line, "empty key before '='");

        for (const std::string &k : seen_keys)
            if (k == key)
                return fail(line, strprintf("duplicate key '%s'",
                                            key.c_str()));
        seen_keys.push_back(key);

        if (section < 0) {
            bool matched = false;
            for (const FieldRef &f : dev_fields)
                if (key == f.key) {
                    matched = true;
                    if (!setField(f, value, line))
                        return false;
                    break;
                }
            for (const FieldRef &f : uvm_fields)
                if (!matched && key == f.key) {
                    matched = true;
                    if (!setField(f, value, line))
                        return false;
                    if (uvm_line == 0) {
                        uvm_line = line;
                        uvm_key = key;
                    }
                    break;
                }
            if (!matched)
                return fail(line,
                            strprintf("unknown device key '%s' (driver "
                                      "keys belong in an API section)",
                                      key.c_str()));
            continue;
        }

        DriverProfile &prof = spec.apis[section];
        bool handled = false;
        if (!setListField(prof, key, value, line, &handled))
            return false;
        if (handled)
            continue;
        bool matched = false;
        for (const FieldRef &f : profileFields(prof))
            if (key == f.key) {
                matched = true;
                if (!setField(f, value, line))
                    return false;
                break;
            }
        if (!matched)
            return fail(line, strprintf("unknown driver key '%s' in "
                                        "section '[%s]'",
                                        key.c_str(),
                                        kSectionNames[section]));
    }

    if (spec.name.empty())
        return fail(0, "device spec is missing required key 'name'");
    if (uvm_line != 0 && !spec.unifiedMemory)
        return fail(uvm_line,
                    strprintf("'%s' requires unified_memory = true",
                              uvm_key.c_str()));
    return true;
}

} // namespace

std::string
serializeDevice(const DeviceSpec &d)
{
    // The table wants mutable access for parsing; serialization never
    // writes, so a local copy keeps the API const-correct.
    DeviceSpec copy = d;
    std::string out;
    out += "# VComputeBench device spec.  Field semantics and "
           "calibration notes:\n";
    out += "# docs/DEVICE_MODEL.md.\n\n";
    emitFields(out, deviceFields(copy));
    if (copy.unifiedMemory)
        emitFields(out, uvmFields(copy));

    for (int a = 0; a < apiCount; ++a) {
        DriverProfile &p = copy.apis[a];
        out += strprintf("\n[%s]\n", kSectionNames[a]);
        if (!p.available) {
            // An unavailable API keeps profile defaults; one line says
            // everything (the paper's "-" table cells).
            out += "available = false\n";
            continue;
        }
        emitFields(out, profileFields(p));
        if (!p.brokenKernels.empty()) {
            std::string joined;
            for (const std::string &k : p.brokenKernels)
                joined += (joined.empty() ? "" : ",") + k;
            out += strprintf("broken_kernels = %s\n", joined.c_str());
        }
        if (!p.kernelTimeDerates.empty()) {
            std::string joined;
            for (const auto &[name, factor] : p.kernelTimeDerates)
                joined += (joined.empty() ? "" : ",") + name + ":" +
                          fmtDouble(factor);
            out += strprintf("kernel_time_derates = %s\n",
                             joined.c_str());
        }
    }
    return out;
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnvBytes(uint64_t h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
fnvStr(uint64_t h, const std::string &s)
{
    // Length-prefixed so adjacent strings cannot alias.
    uint64_t len = s.size();
    h = fnvBytes(h, &len, sizeof(len));
    return fnvBytes(h, s.data(), s.size());
}

uint64_t
hashFields(uint64_t h, const std::vector<FieldRef> &fields)
{
    for (const FieldRef &f : fields) {
        h = fnvBytes(h, f.key, std::strlen(f.key));
        switch (f.kind) {
          case FieldKind::Str:
            h = fnvStr(h, *static_cast<const std::string *>(f.p));
            break;
          case FieldKind::Bool: {
            unsigned char v =
                *static_cast<const bool *>(f.p) ? 1 : 0;
            h = fnvBytes(h, &v, 1);
            break;
          }
          case FieldKind::U32:
            h = fnvBytes(h, f.p, sizeof(uint32_t));
            break;
          case FieldKind::U64:
            h = fnvBytes(h, f.p, sizeof(uint64_t));
            break;
          case FieldKind::Dbl:
            // Hash the bit pattern: exact, like the shortest-exact
            // decimal form in the text serializer.
            h = fnvBytes(h, f.p, sizeof(double));
            break;
        }
    }
    return h;
}

} // namespace

uint64_t
hashDevice(const DeviceSpec &d)
{
    // The field tables want mutable access (the parser writes through
    // them); hashing only reads, so the const_cast is sound and spares
    // the deep copy serializeDevice makes.
    DeviceSpec &mut = const_cast<DeviceSpec &>(d);
    uint64_t h = hashFields(kFnvOffset, deviceFields(mut));
    // Mirror serializeDevice: UVM fields contribute only on unified
    // parts, so hard-cap and UVM specs can never alias.
    if (mut.unifiedMemory)
        h = hashFields(h, uvmFields(mut));
    for (int a = 0; a < apiCount; ++a) {
        DriverProfile &p = mut.apis[a];
        h = fnvBytes(h, kSectionNames[a], std::strlen(kSectionNames[a]));
        if (!p.available) {
            // Mirror serializeDevice: an unavailable API contributes
            // only its availability.
            unsigned char v = 0;
            h = fnvBytes(h, &v, 1);
            continue;
        }
        h = hashFields(h, profileFields(p));
        for (const std::string &k : p.brokenKernels)
            h = fnvStr(h, k);
        for (const auto &[name, factor] : p.kernelTimeDerates) {
            h = fnvStr(h, name);
            h = fnvBytes(h, &factor, sizeof(factor));
        }
    }
    return h;
}

std::optional<DeviceSpec>
parseDevice(const std::string &text, std::string *error)
{
    Parser p;
    if (!p.parse(text)) {
        if (error)
            *error = p.err;
        return std::nullopt;
    }
    return p.spec;
}

DeviceSpec
loadDeviceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read device spec '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    auto spec = parseDevice(text.str(), &err);
    if (!spec)
        fatal("%s: %s", path.c_str(), err.c_str());
    return *spec;
}

std::vector<DeviceSpec>
loadDeviceDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        fatal("device spec directory '%s' does not exist", dir.c_str());

    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() &&
            entry.path().extension() == ".dev")
            paths.push_back(entry.path().string());
    if (paths.empty())
        fatal("no *.dev specs in '%s'", dir.c_str());
    std::sort(paths.begin(), paths.end());

    std::vector<DeviceSpec> devices;
    for (const std::string &path : paths) {
        DeviceSpec d = loadDeviceFile(path);
        for (const DeviceSpec &prev : devices)
            if (prev.name == d.name)
                fatal("%s: duplicate device name '%s'", path.c_str(),
                      d.name.c_str());
        devices.push_back(std::move(d));
    }
    return devices;
}

} // namespace vcb::sim
