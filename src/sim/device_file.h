/**
 * @file
 * Device spec files: load and save DeviceSpec/DriverProfile as plain
 * key=value text, so new devices need zero recompilation.
 *
 * The format (fully documented with field semantics and calibration
 * guidance in docs/DEVICE_MODEL.md) is one `key = value` pair per
 * line: an unsectioned preamble holds the DeviceSpec architectural
 * fields, and one `[vulkan]` / `[opencl]` / `[cuda]` section per API
 * holds that DriverProfile.  `#` starts a full-line comment; blank
 * lines separate sections.  Example:
 *
 *     name = NVIDIA GTX1050Ti
 *     mobile = false
 *     compute_units = 6
 *     ...
 *     [vulkan]
 *     available = true
 *     submit_overhead_ns = 10000
 *     ...
 *
 * Serialization is exact: doubles are printed with the shortest
 * decimal form that parses back to the identical bits, so
 * parse(serialize(d)) reproduces `d` field-for-field and
 * serialize(parse(text)) is a canonical form.  Parse errors are
 * positional ("line 12: unknown key 'foo'") and distinguish syntax,
 * unknown-key, bad-value and out-of-range failures.
 *
 * The `devices/` directory at the repo root holds the paper's four
 * parts, which the build also embeds as the built-in registry
 * (deviceRegistry()), plus the post-paper expansion profiles; the
 * reporting pipeline (tools/vcb_report) loads everything from there.
 */

#ifndef VCB_SIM_DEVICE_FILE_H
#define VCB_SIM_DEVICE_FILE_H

#include <optional>
#include <string>
#include <vector>

#include "sim/device.h"

namespace vcb::sim {

/** Canonical spec-file text for a device (every field, calibrated
 *  values in shortest exact decimal form). */
std::string serializeDevice(const DeviceSpec &d);

/**
 * FNV-1a over every serializable field of `d`, walking the same field
 * tables as serializeDevice — two specs hash equal iff their canonical
 * spec text is equal — but without formatting any text, so it is cheap
 * enough to call per kernel compile (the compile cache fingerprints
 * the device on every lookup).
 */
uint64_t hashDevice(const DeviceSpec &d);

/**
 * Parse spec-file text.  On failure returns nullopt and, when `error`
 * is non-null, stores a positional message ("line 12: ...").
 */
std::optional<DeviceSpec> parseDevice(const std::string &text,
                                      std::string *error = nullptr);

/** Load one spec file; fatal (with path + line) on any error. */
DeviceSpec loadDeviceFile(const std::string &path);

/**
 * Load every `*.dev` file in `dir`, sorted by filename (so report
 * order is stable).  Fatal on parse errors, duplicate device names or
 * a missing/empty directory.
 */
std::vector<DeviceSpec> loadDeviceDir(const std::string &dir);

} // namespace vcb::sim

#endif // VCB_SIM_DEVICE_FILE_H
