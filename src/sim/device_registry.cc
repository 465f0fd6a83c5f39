/**
 * @file
 * The built-in device registry and the thread-scoped active registry.
 *
 * The built-in parts are the paper's four GPUs (Tables II and III).
 * Their only definition is `devices/<stem>.dev`: CMakeLists.txt embeds
 * those files' text at configure time (VCB_BUILTIN_DEVICES) and
 * deviceRegistry() parses it once.  Their calibration rationale lives
 * beside each value as `#` comments in those files; field semantics and
 * calibration guidance: docs/DEVICE_MODEL.md.
 */

#include "sim/device.h"

#include <cctype>

#include "common/logging.h"
#include "sim/device_file.h"

namespace vcb::sim {

/** The embedded devices/<stem>.dev texts, in VCB_BUILTIN_DEVICES order,
 *  null-terminated (generated builtin_devices.cc). */
extern const char *const kBuiltinDeviceTexts[];

const std::vector<DeviceSpec> &
deviceRegistry()
{
    static const std::vector<DeviceSpec> registry = [] {
        std::vector<DeviceSpec> devices;
        for (const char *const *text = kBuiltinDeviceTexts; *text;
             ++text) {
            std::string err;
            std::optional<DeviceSpec> spec = parseDevice(*text, &err);
            // The texts are build data, not user input.
            if (!spec)
                panic("built-in device spec %zu: %s", devices.size(),
                      err.c_str());
            devices.push_back(std::move(*spec));
        }
        return devices;
    }();
    return registry;
}

namespace {
/** Thread-scoped override state: each thread that calls
 *  setActiveDeviceRegistry gets its own storage, so concurrent serve
 *  sessions with different device registries can never observe (or
 *  dangle pointers into) each other's specs.  The runtime front-ends
 *  resolve DeviceSpecs by identity, so the storage must stay stable
 *  for as long as the thread runs workloads against it. */
thread_local bool activeOverride = false;
thread_local std::vector<DeviceSpec> activeStorage;
} // namespace

const std::vector<DeviceSpec> &
activeDeviceRegistry()
{
    return activeOverride ? activeStorage : deviceRegistry();
}

const std::vector<DeviceSpec> &
setActiveDeviceRegistry(std::vector<DeviceSpec> devices)
{
    VCB_ASSERT(!devices.empty(),
               "active device registry cannot be empty");
    activeStorage = std::move(devices);
    activeOverride = true;
    return activeStorage;
}

void
clearActiveDeviceRegistry()
{
    activeOverride = false;
    activeStorage.clear();
}

ScopedDeviceRegistry::ScopedDeviceRegistry(std::vector<DeviceSpec> devices)
    : hadOverride(activeOverride)
{
    if (hadOverride)
        saved = std::move(activeStorage);
    setActiveDeviceRegistry(std::move(devices));
}

ScopedDeviceRegistry::~ScopedDeviceRegistry()
{
    if (hadOverride)
        setActiveDeviceRegistry(std::move(saved));
    else
        clearActiveDeviceRegistry();
}

const std::vector<DeviceSpec> &
ScopedDeviceRegistry::devices() const
{
    return activeStorage;
}

namespace {
/** The form device names are matched in: lower-case letters and
 *  digits only, so "adreno640" finds "Qualcomm Adreno 640". */
std::string
nameKey(const std::string &name)
{
    std::string key;
    for (char c : name)
        if (std::isalnum(static_cast<unsigned char>(c)))
            key += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return key;
}
} // namespace

const DeviceSpec *
findDevice(const std::string &name, std::string *why)
{
    const std::string needle = nameKey(name);
    const DeviceSpec *match = nullptr;
    size_t matches = 0;
    std::string candidates;
    for (const DeviceSpec &d : activeDeviceRegistry()) {
        const std::string key = nameKey(d.name);
        if (key == needle)
            return &d;
        if (key.find(needle) != std::string::npos) {
            candidates += (matches++ ? ", " : "") + d.name;
            match = &d;
        }
    }
    if (matches == 1 && !needle.empty())
        return match;
    if (why && matches == 0)
        *why = strprintf("no device matching '%s' in the registry",
                         name.c_str());
    else if (why)
        *why = strprintf("device name '%s' is ambiguous: it matches %s",
                         name.c_str(), candidates.c_str());
    return nullptr;
}

const DeviceSpec &
deviceByName(const std::string &name)
{
    std::string why;
    const DeviceSpec *d = findDevice(name, &why);
    if (!d)
        fatal("%s", why.c_str());
    return *d;
}

const DeviceSpec &
gtx1050ti()
{
    return deviceRegistry()[0];
}

const DeviceSpec &
rx560()
{
    return deviceRegistry()[1];
}

const DeviceSpec &
adreno506()
{
    return deviceRegistry()[2];
}

const DeviceSpec &
powervrG6430()
{
    return deviceRegistry()[3];
}

} // namespace vcb::sim
