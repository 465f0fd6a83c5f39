/** @file Smoke tests for the tools/ binaries: vcb_run --list, a tiny
 *  vcb_run benchmark execution, vcb_disasm on builder-generated
 *  modules, vcb_serve's error responses, vcb_load against a server
 *  that exits, vcb_perf's per-benchmark verdicts and vcb_report's
 *  usage errors.  CTest points VCB_RUN_BIN / VCB_DISASM_BIN /
 *  VCB_SERVE_BIN / VCB_LOAD_BIN / VCB_PERF_BIN / VCB_REPORT_BIN at the
 *  built executables and VCB_DEVICES_DIR at the committed spec
 *  directory; the tests skip when run outside the build harness.
 *  Also: numeric flags reject trailing junk. */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/** Run a shell command line, capture its stdout, return exit status. */
int
runPipe(const std::string &cmd, std::string *out)
{
    out->clear();
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out->append(buf, n);
    return pclose(pipe);
}

/** Run a command, capture combined stdout, return exit status. */
int
runCapture(const std::string &cmd, std::string *out)
{
    return runPipe(cmd + " 2>&1", out);
}

/** Run a command, capture its stderr only, return exit status. */
int
runStderr(const std::string &cmd, std::string *err)
{
    return runPipe(cmd + " 2>&1 >/dev/null", err);
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
        vcbLoad = binFromEnv("VCB_LOAD_BIN");
        vcbPerf = binFromEnv("VCB_PERF_BIN");
        vcbReport = binFromEnv("VCB_REPORT_BIN");
        devicesDir = binFromEnv("VCB_DEVICES_DIR");
        if (vcbRun.empty() || vcbDisasm.empty() || vcbServe.empty() ||
            vcbLoad.empty() || vcbPerf.empty() || vcbReport.empty() ||
            devicesDir.empty())
            GTEST_SKIP() << "VCB_RUN_BIN / VCB_DISASM_BIN / VCB_SERVE_BIN "
                            "/ VCB_LOAD_BIN / VCB_PERF_BIN / VCB_REPORT_BIN "
                            "/ VCB_DEVICES_DIR not set (run via ctest)";
    }

    std::string vcbRun, vcbDisasm, vcbServe, vcbLoad, vcbPerf, vcbReport;
    std::string devicesDir;
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

TEST_F(ToolsSmoke, LoadFailsFastWhenTheServerExits)
{
    // /bin/true exits at once: every request must fail with the reason
    // instead of waiting forever for an answer no reader will deliver.
    std::string out;
    int status = runCapture("timeout 60 " + vcbLoad +
                                " --quick --serve-bin /bin/true",
                            &out);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_NE(WEXITSTATUS(status), 0) << out;
    EXPECT_NE(WEXITSTATUS(status), 124) << "timed out: " << out;
    EXPECT_NE(out.find("vcb_serve exited"), std::string::npos) << out;
}

/** The text of a flat JSON line's value for `key`, up to the next
 *  comma or closing brace; empty when the key is absent. */
std::string
jsonField(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    const size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    const size_t from = at + tag.size();
    return line.substr(from, line.find_first_of(",}", from) - from);
}

TEST_F(ToolsSmoke, PerfMixMarksOnlyTheFailedBenchmark)
{
    // The Adreno 506's OpenCL driver fails lud (a paper quirk); the
    // other six mix benchmarks still validate and must say so.  Every
    // line carries the dispatch time under its new name only.
    std::string out;
    int status = runCapture("VCB_THREADS=1 " + vcbPerf +
                                " --quick --device adreno506"
                                " --api opencl",
                            &out);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 1) << out;
    std::istringstream lines(out);
    std::string line;
    int benches = 0;
    bool saw_mix = false;
    while (std::getline(lines, line)) {
        const std::string bench = jsonField(line, "bench");
        if (bench.empty())
            continue;
        EXPECT_NE(jsonField(line, "dispatch_wall_ms"), "") << line;
        EXPECT_EQ(jsonField(line, "sim_ms"), "") << line;
        const std::string validated = jsonField(line, "validated");
        if (bench == "\"mix\"") {
            saw_mix = true;
            EXPECT_EQ(validated, "false") << line;
        } else {
            ++benches;
            EXPECT_EQ(validated, bench == "\"lud\"" ? "false" : "true")
                << line;
        }
    }
    EXPECT_EQ(benches, 7) << out;
    EXPECT_TRUE(saw_mix) << out;
}

TEST_F(ToolsSmoke, ReportRejectsAnOutPathThatIsAFile)
{
    // The --out directories are made before the sweep: a regular file
    // there is a clean error naming the path, not an uncaught
    // filesystem_error after the whole book has run.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("vcb_report_out_file_" + std::to_string(::getpid())))
            .string();
    std::ofstream(path) << "not a directory\n";
    std::string err;
    int status = runStderr(vcbReport + " --dry-run --devices " +
                               devicesDir + " --out " + path,
                           &err);
    std::filesystem::remove(path);
    ASSERT_TRUE(WIFEXITED(status)) << err;
    EXPECT_EQ(WEXITSTATUS(status), 1) << err;
    EXPECT_NE(err.find(path), std::string::npos) << err;
}

TEST_F(ToolsSmoke, ReportUsageErrorsGoToStderr)
{
    // --suite-json only prints its snapshot: with --check, --out or
    // --dry-run it would ignore them, so the combination is a usage
    // error, as is an unknown flag.  Only --help prints to stdout.
    const std::string out_dir =
        (std::filesystem::temp_directory_path() /
         ("vcb_report_suite_out_" + std::to_string(::getpid())))
            .string();
    const std::vector<std::string> invocations = {
        " --suite-json --quick --check /nonexistent/BENCH_report.json",
        " --suite-json --quick --out " + out_dir,
        " --suite-json --dry-run", " --no-such-flag"};
    for (const std::string &args : invocations) {
        std::string err;
        int status = runStderr(
            vcbReport + " --devices " + devicesDir + args, &err);
        ASSERT_TRUE(WIFEXITED(status)) << args << ": " << err;
        EXPECT_EQ(WEXITSTATUS(status), 1) << args << ": " << err;
        EXPECT_NE(err.find("usage: vcb_report"), std::string::npos)
            << args << ": " << err;
    }
    EXPECT_FALSE(std::filesystem::exists(out_dir));

    std::string out;
    ASSERT_EQ(runPipe(vcbReport + " --help 2>/dev/null", &out), 0) << out;
    EXPECT_NE(out.find("usage: vcb_report"), std::string::npos) << out;
}

} // namespace
