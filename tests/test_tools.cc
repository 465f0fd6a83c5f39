/** @file Smoke tests for the tools/ binaries: vcb_run --list, a tiny
 *  vcb_run benchmark execution, vcb_disasm on builder-generated
 *  modules, and vcb_serve's error responses.  CTest points VCB_RUN_BIN
 *  / VCB_DISASM_BIN / VCB_SERVE_BIN at the built executables; the tests
 *  skip when run outside the build harness.  Also: numeric flags
 *  reject trailing junk. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

/** Run a command, capture combined stdout, return exit status. */
int
runCapture(const std::string &cmd, std::string *out)
{
    out->clear();
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out->append(buf, n);
    return pclose(pipe);
}

std::string
binFromEnv(const char *var)
{
    const char *v = std::getenv(var);
    return v ? v : "";
}

class ToolsSmoke : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        vcbRun = binFromEnv("VCB_RUN_BIN");
        vcbDisasm = binFromEnv("VCB_DISASM_BIN");
        vcbServe = binFromEnv("VCB_SERVE_BIN");
        if (vcbRun.empty() || vcbDisasm.empty() || vcbServe.empty())
            GTEST_SKIP() << "VCB_RUN_BIN / VCB_DISASM_BIN / VCB_SERVE_BIN "
                            "not set (run via ctest)";
    }

    std::string vcbRun, vcbDisasm, vcbServe;
};

TEST_F(ToolsSmoke, RunListShowsBenchmarksAndDevices)
{
    std::string out;
    ASSERT_EQ(runCapture(vcbRun + " --list", &out), 0) << out;
    // The nine Table-I benchmarks plus the suite expansion...
    for (const char *bench :
         {"backprop", "bfs", "cfd", "gaussian", "hotspot", "lud", "nn",
          "nw", "pathfinder", "srad", "kmeans", "streamcluster"})
        EXPECT_NE(out.find(bench), std::string::npos) << out;
    // ...and all four Table-II/III devices.
    for (const char *dev :
         {"GTX1050Ti", "RX560", "Adreno", "PowerVR"})
        EXPECT_NE(out.find(dev), std::string::npos) << out;
}

TEST_F(ToolsSmoke, RunExecutesTinyBenchmarkOnAllApis)
{
    std::string out;
    ASSERT_EQ(runCapture(vcbRun + " --bench nn --device gtx1050ti"
                                  " --api all --params 4096",
                         &out),
              0)
        << out;
    EXPECT_NE(out.find("VALIDATED"), std::string::npos) << out;
    EXPECT_EQ(out.find("INVALID"), std::string::npos) << out;
    for (const char *api : {"Vulkan", "OpenCL", "CUDA"})
        EXPECT_NE(out.find(api), std::string::npos) << out;
}

TEST_F(ToolsSmoke, RunRejectsUnknownFlag)
{
    std::string out;
    EXPECT_NE(runCapture(vcbRun + " --no-such-flag", &out), 0);
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(ToolsSmoke, NumericFlagsRejectTrailingJunk)
{
    // A bare strtol reads "2x" as 2 and "abc" as 0.
    std::string out;
    EXPECT_NE(runCapture(vcbServe + " --sessions 2x < /dev/null", &out), 0);
    EXPECT_NE(out.find("--sessions"), std::string::npos) << out;
    EXPECT_NE(runCapture(vcbRun + " --bench nn --size abc", &out), 0);
    EXPECT_NE(out.find("--size"), std::string::npos) << out;
}

TEST_F(ToolsSmoke, DisasmListsEveryKernel)
{
    std::string out;
    ASSERT_EQ(runCapture(vcbDisasm + " --list", &out), 0) << out;
    for (const char *k :
         {"vectorAdd", "stridedRead", "backprop_layerforward",
          "bfs_kernel1", "cfd_compute_flux", "gaussian_fan1",
          "hotspot_step", "lud_diagonal", "nn_euclid", "nw_block",
          "pathfinder_row", "srad_reduce", "srad_step1", "srad_step2",
          "kmeans_swap", "kmeans_assign", "streamcluster_gain"})
        EXPECT_NE(out.find(k), std::string::npos) << out;
}

TEST_F(ToolsSmoke, DisasmPrintsListingAndDriverCompilation)
{
    std::string out;
    ASSERT_EQ(runCapture(vcbDisasm + " bfs_kernel1", &out), 0) << out;
    EXPECT_NE(out.find("bfs_kernel1"), std::string::npos) << out;
    EXPECT_NE(out.find("Ret"), std::string::npos) << out;
    EXPECT_NE(out.find("binary:"), std::string::npos) << out;
    // The compiler-maturity comparison: Vulkan ignores the promote
    // hint on the GTX 1050 Ti, OpenCL/CUDA honour it.
    EXPECT_NE(out.find("ignored"), std::string::npos) << out;
    EXPECT_NE(out.find("honoured"), std::string::npos) << out;
}

TEST_F(ToolsSmoke, KmeansIterationCountIsThreadCountInvariant)
{
    // kmeans's convergence loop must be a pure function of the data:
    // the reported launch count (1 transpose + 1 assignment dispatch
    // per iteration) has to be identical whether the simulator
    // interprets workgroups serially (VCB_THREADS=1) or across N
    // workers.  The pool is sized once per process, so the property
    // needs separate processes — which is exactly what this harness
    // can provide.
    auto launchesOf = [&](const std::string &env) -> long {
        std::string out;
        int rc = runCapture(env + " " + vcbRun +
                                " --bench kmeans --device gtx1050ti"
                                " --api vulkan --params 2048,4,5",
                            &out);
        EXPECT_EQ(rc, 0) << out;
        EXPECT_NE(out.find("VALIDATED"), std::string::npos) << out;
        size_t pos = out.find("launches");
        EXPECT_NE(pos, std::string::npos) << out;
        if (pos == std::string::npos)
            return -1;
        return std::strtol(out.c_str() + pos + 8, nullptr, 10);
    };
    long serial = launchesOf("VCB_THREADS=1");
    long parallel = launchesOf("VCB_THREADS=4");
    EXPECT_GT(serial, 1);
    EXPECT_EQ(serial, parallel);
}

TEST_F(ToolsSmoke, DisasmOnMobileDeviceShowsProfile)
{
    std::string out;
    ASSERT_EQ(runCapture(vcbDisasm + " hotspot_step --device adreno",
                         &out),
              0)
        << out;
    EXPECT_NE(out.find("Adreno"), std::string::npos) << out;
    // No CUDA on the Snapdragon part.
    EXPECT_NE(out.find("not available"), std::string::npos) << out;
}

TEST_F(ToolsSmoke, ServeRejectionKeepsTheRequestId)
{
    // The id parses before the unknown key is rejected; the error line
    // must echo it or the client cannot tell which request failed.
    std::string out;
    ASSERT_EQ(runCapture("printf '%s\\n' "
                         "'{\"id\": \"x7\", \"bench\": \"bfs\", "
                         "\"bogus\": 1}' | " +
                             vcbServe + " --sessions 1",
                         &out),
              0)
        << out;
    size_t line = out.find("{\"type\": \"error\"");
    ASSERT_NE(line, std::string::npos) << out;
    std::string error_line = out.substr(line, out.find('\n', line) - line);
    EXPECT_NE(error_line.find("\"id\": \"x7\""), std::string::npos)
        << error_line;
    EXPECT_NE(error_line.find("bogus"), std::string::npos) << error_line;
}

} // namespace
