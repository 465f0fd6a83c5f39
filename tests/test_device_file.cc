/**
 * @file
 * Device spec-file tests: serialize -> parse -> compare round trips of
 * every built-in device, canonical equality of the committed `.dev`
 * files under devices/ with the built-in registry embedded from them
 * (VCB_DEVICES_DIR, set by CTest), directory loading, and positional
 * rejection of malformed, unknown-key and out-of-range spec files.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.h"
#include "sim/device.h"
#include "sim/device_file.h"

namespace vcb::sim {
namespace {

/** Error-path helper: parse must fail and mention every fragment. */
void
expectParseError(const std::string &text,
                 const std::vector<std::string> &fragments)
{
    std::string err;
    auto parsed = parseDevice(text, &err);
    ASSERT_FALSE(parsed.has_value())
        << "expected parse failure for:\n"
        << text;
    for (const std::string &fragment : fragments)
        EXPECT_NE(err.find(fragment), std::string::npos)
            << "error '" << err << "' lacks '" << fragment << "'";
}

TEST(DeviceFile, RoundTripsEveryBuiltin)
{
    for (const DeviceSpec &dev : deviceRegistry()) {
        std::string text = serializeDevice(dev);
        std::string err;
        auto parsed = parseDevice(text, &err);
        ASSERT_TRUE(parsed.has_value()) << dev.name << ": " << err;
        // Canonical-form fixpoint: a parse reproduces every field the
        // serializer writes, bit-exact doubles included.
        EXPECT_EQ(serializeDevice(*parsed), text) << dev.name;
    }
}

TEST(DeviceFile, RoundTripPreservesFields)
{
    auto parsed = parseDevice(serializeDevice(gtx1050ti()));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->name, "NVIDIA GTX1050Ti");
    EXPECT_EQ(parsed->computeUnits, 6u);
    EXPECT_EQ(parsed->clockGhz, 1.39); // bit-exact, not approximate
    EXPECT_EQ(parsed->deviceHeapBytes, 4ull << 30);
    const DriverProfile &vk =
        parsed->apis[static_cast<int>(Api::Vulkan)];
    EXPECT_EQ(vk.memEfficiency, 0.849);
    EXPECT_EQ(vk.txEfficiency, 1.06);
    EXPECT_FALSE(vk.localMemPromotion);
    // Unavailable profiles serialize as one line and parse back to
    // defaults (rx560 has no CUDA).
    auto rx = parseDevice(serializeDevice(rx560()));
    ASSERT_TRUE(rx.has_value());
    EXPECT_FALSE(rx->apis[static_cast<int>(Api::Cuda)].available);

    auto pvr = parseDevice(serializeDevice(powervrG6430()));
    ASSERT_TRUE(pvr.has_value());
    const DriverProfile &pvk =
        pvr->apis[static_cast<int>(Api::Vulkan)];
    ASSERT_EQ(pvk.kernelTimeDerates.size(), 1u);
    EXPECT_EQ(pvk.kernelTimeDerates[0].first, "hotspot");
    EXPECT_EQ(pvk.kernelTimeDerates[0].second, 2.2);
    ASSERT_EQ(pvk.brokenKernels.size(), 1u);
    EXPECT_EQ(pvk.brokenKernels[0], "backprop");

    auto adreno = parseDevice(serializeDevice(adreno506()));
    ASSERT_TRUE(adreno.has_value());
    const DriverProfile &avk =
        adreno->apis[static_cast<int>(Api::Vulkan)];
    EXPECT_TRUE(avk.pushConstantsAsBufferBind);
    EXPECT_EQ(avk.sharedKernelTimeDerate, 2.0);
    const DriverProfile &acl =
        adreno->apis[static_cast<int>(Api::OpenCl)];
    ASSERT_EQ(acl.brokenKernels.size(), 1u);
    EXPECT_EQ(acl.brokenKernels[0], "lud");
}

TEST(DeviceFile, CommittedSpecsMatchBuiltins)
{
    const char *dir = std::getenv("VCB_DEVICES_DIR");
    if (!dir)
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    const std::pair<const char *, const DeviceSpec &> parts[] = {
        {"gtx1050ti", gtx1050ti()},
        {"rx560", rx560()},
        {"adreno506", adreno506()},
        {"powervr_g6430", powervrG6430()},
    };
    for (const auto &[stem, dev] : parts) {
        std::string path = std::string(dir) + "/" + stem + ".dev";
        // Canonical forms, since the files carry comments: a built-in
        // embedded from a stale copy of its file fails here.
        EXPECT_EQ(serializeDevice(loadDeviceFile(path)),
                  serializeDevice(dev))
            << path;
    }
}

TEST(DeviceFile, LoadsSpecDirectoryWithExpansionDevices)
{
    const char *dir = std::getenv("VCB_DEVICES_DIR");
    if (!dir)
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    std::vector<DeviceSpec> devices = loadDeviceDir(dir);
    EXPECT_GE(devices.size(), 6u);

    size_t mobile = 0;
    bool mali = false, adreno640 = false;
    for (size_t i = 0; i < devices.size(); ++i) {
        mobile += devices[i].mobile ? 1 : 0;
        for (size_t j = i + 1; j < devices.size(); ++j)
            EXPECT_NE(devices[i].name, devices[j].name);
        if (devices[i].name == "Arm Mali-G76")
            mali = true;
        if (devices[i].name == "Qualcomm Adreno 640")
            adreno640 = true;
    }
    EXPECT_GE(mobile, 4u);
    EXPECT_TRUE(mali) << "expansion device Mali-G76 missing";
    EXPECT_TRUE(adreno640) << "expansion device Adreno 640 missing";

    // The expansion parts expose Vulkan + OpenCL, never CUDA, and
    // dropped the paper-era Snapdragon push-constant quirk.
    for (const DeviceSpec &d : devices) {
        if (d.name != "Arm Mali-G76" &&
            d.name != "Qualcomm Adreno 640")
            continue;
        EXPECT_TRUE(d.mobile) << d.name;
        EXPECT_TRUE(d.profile(Api::Vulkan).available) << d.name;
        EXPECT_TRUE(d.profile(Api::OpenCl).available) << d.name;
        EXPECT_FALSE(d.profile(Api::Cuda).available) << d.name;
        EXPECT_FALSE(d.profile(Api::Vulkan).pushConstantsAsBufferBind)
            << d.name;
    }
}

TEST(DeviceFile, MinimalSpecParsesToDefaults)
{
    auto parsed = parseDevice("name = Tiny\n");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->name, "Tiny");
    EXPECT_EQ(parsed->computeUnits, 1u);
    EXPECT_FALSE(parsed->apis[0].available);
    // Canonical-form fixpoint holds for defaults too.
    std::string text = serializeDevice(*parsed);
    auto again = parseDevice(text);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(serializeDevice(*again), text);
}

TEST(DeviceFile, CommentsAndBlankLinesAreIgnored)
{
    auto parsed = parseDevice("# a comment\n\n"
                              "name = X\n"
                              "   # indented comment\n"
                              "compute_units = 3\n");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->computeUnits, 3u);
}

TEST(DeviceFile, RejectsMissingEquals)
{
    expectParseError("name = X\ncompute_units\n",
                     {"line 2", "key = value"});
}

TEST(DeviceFile, RejectsUnknownDeviceKey)
{
    expectParseError("name = X\nfrobnicate = 1\n",
                     {"line 2", "unknown device key 'frobnicate'"});
}

TEST(DeviceFile, RejectsDriverKeyInPreamble)
{
    expectParseError("name = X\ncode_quality = 1\n",
                     {"line 2", "unknown device key 'code_quality'"});
}

TEST(DeviceFile, RejectsUnknownDriverKey)
{
    expectParseError("name = X\n[vulkan]\nwibble = 1\n",
                     {"line 3", "unknown driver key 'wibble'",
                      "[vulkan]"});
}

TEST(DeviceFile, RejectsUnknownSection)
{
    expectParseError("name = X\n[metal]\n",
                     {"line 2", "unknown section"});
}

TEST(DeviceFile, RejectsDuplicateSection)
{
    expectParseError("name = X\n[vulkan]\navailable = true\n[vulkan]\n",
                     {"line 4", "duplicate section"});
}

TEST(DeviceFile, RejectsDuplicateKey)
{
    expectParseError("name = X\nname = Y\n",
                     {"line 2", "duplicate key 'name'"});
}

TEST(DeviceFile, RejectsBadBool)
{
    expectParseError("name = X\nmobile = maybe\n",
                     {"line 2", "true or false"});
}

TEST(DeviceFile, RejectsBadInteger)
{
    expectParseError("name = X\ncompute_units = twelve\n",
                     {"line 2", "unsigned integer"});
    expectParseError("name = X\ncompute_units = -3\n",
                     {"line 2", "unsigned integer"});
}

TEST(DeviceFile, RejectsOutOfRangeValues)
{
    expectParseError("name = X\ncompute_units = 0\n",
                     {"line 2", "'compute_units' out of range"});
    expectParseError("name = X\nclock_ghz = 0\n",
                     {"line 2", "'clock_ghz' out of range"});
    expectParseError("name = X\n[vulkan]\nmem_efficiency = 1.5\n",
                     {"line 3", "'mem_efficiency' out of range"});
    expectParseError("name = X\n[opencl]\ncode_quality = -1\n",
                     {"line 3", "'code_quality' out of range"});
}

TEST(DeviceFile, RejectsNonFiniteDouble)
{
    expectParseError("name = X\nclock_ghz = nan\n",
                     {"line 2", "finite"});
}

TEST(DeviceFile, RejectsMalformedDerates)
{
    expectParseError("name = X\n[vulkan]\nkernel_time_derates = "
                     "hotspot\n",
                     {"line 3", "name:factor"});
    expectParseError("name = X\n[vulkan]\nkernel_time_derates = "
                     "hotspot:-1\n",
                     {"line 3", "positive"});
}

TEST(DeviceFile, RejectsEmptyBrokenKernelEntry)
{
    expectParseError("name = X\n[vulkan]\nbroken_kernels = lud,,bfs\n",
                     {"line 3", "empty entry"});
}

TEST(DeviceFile, RejectsMissingName)
{
    expectParseError("mobile = true\n",
                     {"missing required key 'name'"});
}

// ---------------------------------------------------------------------------
// UVM paging fields (unified-memory parts only)
// ---------------------------------------------------------------------------

TEST(DeviceFileUvm, RandomizedUvmSpecsRoundTripBitExactly)
{
    const uint64_t seed =
        std::getenv("VCB_PROPERTY_SEED")
            ? std::strtoull(std::getenv("VCB_PROPERTY_SEED"), nullptr,
                            10)
            : 42;
    Rng rng(seed);
    for (int trial = 0; trial < 64; ++trial) {
        DeviceSpec d = adreno506(); // unified-memory builtin
        d.name = "Fuzz UVM " + std::to_string(trial);
        // Random values across each field's full accepted range.
        d.uvmOversubscription = 1.0 + rng.nextFloat(0.0f, 255.0f);
        d.uvmPageBytes =
            256 + (uint32_t)rng.nextBelow((1u << 24) - 255);
        d.uvmMigrationNsPerPage = rng.nextFloat(0.0f, 1e9f);
        d.uvmFaultLatencyNs = rng.nextFloat(0.0f, 1e9f);
        d.uvmOversubBwDerate = rng.nextFloat(0.001f, 1.0f);

        std::string text = serializeDevice(d);
        std::string err;
        auto parsed = parseDevice(text, &err);
        ASSERT_TRUE(parsed.has_value())
            << "seed " << seed << " trial " << trial << ": " << err;
        // Bit-exact field round trip, canonical-form fixpoint, and a
        // matching fingerprint (the compile cache keys on it).
        EXPECT_EQ(parsed->uvmOversubscription, d.uvmOversubscription)
            << trial;
        EXPECT_EQ(parsed->uvmPageBytes, d.uvmPageBytes) << trial;
        EXPECT_EQ(parsed->uvmMigrationNsPerPage,
                  d.uvmMigrationNsPerPage)
            << trial;
        EXPECT_EQ(parsed->uvmFaultLatencyNs, d.uvmFaultLatencyNs)
            << trial;
        EXPECT_EQ(parsed->uvmOversubBwDerate, d.uvmOversubBwDerate)
            << trial;
        EXPECT_EQ(serializeDevice(*parsed), text) << trial;
        EXPECT_EQ(hashDevice(*parsed), hashDevice(d)) << trial;
    }
}

TEST(DeviceFileUvm, RejectsUvmKeysWithoutUnifiedMemory)
{
    // Default (unified_memory absent = false): positional, at the
    // offending key's line.
    expectParseError(
        "name = X\nuvm_page_bytes = 65536\n",
        {"line 2", "'uvm_page_bytes' requires unified_memory = true"});
    // Explicit false AFTER the UVM key: the check runs at end of
    // parse, but the error still points at the key's own line.
    expectParseError("name = X\nuvm_oversubscription = 4\n"
                     "unified_memory = false\n",
                     {"line 2", "'uvm_oversubscription' requires "
                                "unified_memory = true"});
    // On a unified part the same text parses.
    auto ok = parseDevice("name = X\nuvm_oversubscription = 4\n"
                          "unified_memory = true\n");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->uvmOversubscription, 4.0);
    EXPECT_TRUE(ok->uvmPagingEnabled());
}

TEST(DeviceFileUvm, RejectsOutOfRangeUvmValues)
{
    expectParseError("name = X\nunified_memory = true\n"
                     "uvm_oversubscription = 0.5\n",
                     {"line 3", "'uvm_oversubscription' out of range"});
    expectParseError("name = X\nunified_memory = true\n"
                     "uvm_oversubscription = 300\n",
                     {"line 3", "'uvm_oversubscription' out of range"});
    expectParseError("name = X\nunified_memory = true\n"
                     "uvm_page_bytes = 64\n",
                     {"line 3", "'uvm_page_bytes' out of range"});
    // The derate's minimum is strict: 0 would stall the DRAM model.
    expectParseError("name = X\nunified_memory = true\n"
                     "uvm_oversub_bw_derate = 0\n",
                     {"line 3",
                      "'uvm_oversub_bw_derate' out of range"});
}

TEST(DeviceFileUvm, SerializerEmitsUvmFieldsOnlyOnUnifiedParts)
{
    // Hard-cap desktop: no uvm_ lines at all (the fields are inert).
    EXPECT_EQ(serializeDevice(gtx1050ti()).find("uvm_"),
              std::string::npos);
    // Unified part: all five fields, even at defaults (canonical
    // form), so the committed adreno506/powervr specs carry them.
    std::string text = serializeDevice(adreno506());
    for (const char *key :
         {"uvm_oversubscription", "uvm_page_bytes",
          "uvm_migration_ns_per_page", "uvm_fault_latency_ns",
          "uvm_oversub_bw_derate"})
        EXPECT_NE(text.find(key), std::string::npos) << key;
}

} // namespace
} // namespace vcb::sim
