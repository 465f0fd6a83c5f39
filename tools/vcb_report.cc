/**
 * @file
 * vcb_report — the one-command paper-report pipeline.
 *
 * Loads the device registry from the `.dev` spec files in `devices/`
 * (zero recompilation to add a device), runs every registered benchmark
 * under every available API and every admissible Vulkan submission
 * strategy on every device, and emits the full artifact set through
 * the shared report-book layer (src/harness/report_book.h):
 *
 *   vcb_report                      # print the Markdown results book
 *   vcb_report --dry-run            # shrunken sizes (CI / smoke scale)
 *   vcb_report --out DIR            # artifact tree:
 *                                   #   DIR/RESULTS.md   results book
 *                                   #   DIR/suite.json   suite JSON lines
 *                                   #   DIR/csv/<dev>.csv  per-device CSV
 *   vcb_report --check FILE         # regenerate the book and fail on
 *                                   # any byte difference from FILE
 *                                   # (CI: docs/RESULTS.md drift gate)
 *   vcb_report --suite-json         # suite JSON lines to stdout — the
 *                                   # superset of `vcb_perf --suite`
 *                                   # tracked as BENCH_report.json;
 *                                   # takes --quick, not --dry-run,
 *                                   # --out or --check
 *   vcb_report --quick              # smoke: build everything at dry
 *                                   # scale, print a one-line verdict
 *
 * --devices DIR (default "devices") selects the spec directory.  Exit
 * status is non-zero when any executed run fails validation or a
 * --check finds drift.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strutil.h"
#include "harness/report_book.h"
#include "sim/device.h"
#include "sim/device_file.h"
#include "suite/benchmark.h"

using namespace vcb;

namespace {

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: vcb_report [--devices DIR] [--dry-run] [--quick]\n"
        "                  [--out DIR] [--check FILE] [--suite-json]\n"
        "                  [--jobs N]\n"
        "  --jobs N   sweep-executor worker sessions (default:\n"
        "             hardware concurrency);\n"
        "             output is byte-identical at any job count\n"
        "  --suite-json  takes --quick, not --dry-run, --out or --check\n");
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
    if (!out)
        fatal("short write to '%s'", path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Report the first differing line of a --check mismatch. */
void
reportDrift(const std::string &want_path, const std::string &want,
            const std::string &got)
{
    std::vector<std::string> want_lines = split(want, '\n');
    std::vector<std::string> got_lines = split(got, '\n');
    size_t n = std::min(want_lines.size(), got_lines.size());
    for (size_t i = 0; i < n; ++i) {
        if (want_lines[i] != got_lines[i]) {
            std::fprintf(stderr,
                         "vcb_report: %s drifts at line %zu:\n"
                         "  committed: %s\n"
                         "  generated: %s\n",
                         want_path.c_str(), i + 1,
                         want_lines[i].c_str(), got_lines[i].c_str());
            return;
        }
    }
    std::fprintf(stderr,
                 "vcb_report: %s drifts: committed has %zu lines, "
                 "generated has %zu\n",
                 want_path.c_str(), want_lines.size(),
                 got_lines.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string devices_dir = "devices";
    std::string out_dir;
    std::string check_file;
    bool dry_run = false;
    bool quick = false;
    bool suite_json = false;
    unsigned jobs = 0; // 0 = hardware concurrency

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--devices")
            devices_dir = next();
        else if (arg == "--dry-run")
            dry_run = true;
        else if (arg == "--quick")
            quick = true;
        else if (arg == "--out")
            out_dir = next();
        else if (arg == "--check")
            check_file = next();
        else if (arg == "--suite-json")
            suite_json = true;
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(parseCount("--jobs", next(), 1, 256));
        else if (arg == "--help") {
            usage(stdout);
            return 0;
        } else {
            usage(stderr);
            return 1;
        }
    }

    // The suite snapshot runs at its own sizes and only prints: a
    // --check or --out it ignored could never fail.
    if (suite_json &&
        (dry_run || !out_dir.empty() || !check_file.empty())) {
        std::fprintf(stderr, "vcb_report: --suite-json takes no "
                             "--dry-run, --out or --check\n");
        usage(stderr);
        return 1;
    }

    // Before the sweep, so a bad --out fails at once, not after it.
    if (!out_dir.empty()) {
        for (const std::string &dir : {out_dir, out_dir + "/csv"}) {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            if (ec)
                fatal("cannot create --out directory '%s': %s",
                      dir.c_str(), ec.message().c_str());
        }
    }

    // Load the spec files and install them as the registry the
    // runtime front-ends enumerate; all runs reference these objects.
    const std::vector<sim::DeviceSpec> &devices =
        sim::setActiveDeviceRegistry(sim::loadDeviceDir(devices_dir));
    inform("loaded %zu device specs from %s", devices.size(),
           devices_dir.c_str());

    if (suite_json) {
        bool all_ok = false;
        std::string lines =
            harness::suiteJsonLines(devices, quick, &all_ok, jobs);
        std::fputs(lines.c_str(), stdout);
        return all_ok ? 0 : 1;
    }

    bool dry = dry_run || quick;
    harness::ReportBook book =
        harness::buildReportBook(devices, dry, jobs);
    // Wall-clock trajectory of the build (stderr: the book itself is
    // deterministic and byte-diffed, so it never carries wall time).
    inform("sweep: %zu cells on %u jobs in %.1f ms (dispatch %.1f ms); "
           "slowest cell %.1f ms (%s), cell wall / jobs %.1f ms",
           book.cells, book.jobs, book.sweepWallMs, book.sweepDispatchMs,
           book.slowestCellMs, book.slowestCell.c_str(),
           book.sweepCellWallMs / book.jobs);
    std::string markdown = harness::renderResultsBook(book);
    bool ok = book.allValidated();
    if (!ok)
        std::fprintf(stderr,
                     "vcb_report: some runs failed validation\n");

    bool drift = false;
    if (!check_file.empty()) {
        std::string committed = readFile(check_file);
        if (committed != markdown) {
            drift = true;
            reportDrift(check_file, committed, markdown);
            std::fprintf(stderr,
                         "vcb_report: regenerate with: "
                         "build/tools/vcb_report --dry-run > %s\n",
                         check_file.c_str());
        } else {
            std::printf("vcb_report: %s is up to date (%zu bytes)\n",
                        check_file.c_str(), markdown.size());
        }
    }

    if (!out_dir.empty()) {
        writeFile(out_dir + "/RESULTS.md", markdown);
        for (const harness::DeviceReport &report : book.devices)
            writeFile(out_dir + "/csv/" +
                          harness::deviceSlug(report.dev->name) + ".csv",
                      harness::deviceCsv(report));
        // Rendered from the already-built book: the artifact tree is
        // internally consistent and costs one suite run, not two.
        writeFile(out_dir + "/suite.json",
                  harness::suiteJsonFromBook(book));
        std::printf("vcb_report: wrote %s/RESULTS.md, %s/suite.json "
                    "and %zu per-device CSVs under %s/csv/\n",
                    out_dir.c_str(), out_dir.c_str(),
                    book.devices.size(), out_dir.c_str());
    }

    if (check_file.empty() && out_dir.empty()) {
        if (quick)
            std::printf("vcb_report --quick: %zu devices x %zu "
                        "benchmarks x %d APIs x strategies, %s\n",
                        book.devices.size(),
                        suite::registry().size(), sim::apiCount,
                        ok ? "all executed runs validated"
                           : "VALIDATION FAILURES");
        else
            std::fputs(markdown.c_str(), stdout);
    }

    return (ok && !drift) ? 0 : 1;
}
