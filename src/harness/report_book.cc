#include "harness/report_book.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>

#include "common/logging.h"
#include "common/strutil.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "suite/benchmark.h"

namespace vcb::harness {

using sim::Api;

uint64_t
speedupScale(bool mobile, bool dry)
{
    if (!dry)
        return 1;
    return mobile ? 16 : 64;
}

// ---------------------------------------------------------------------------
// Bandwidth figures (Figs. 1 and 3)
// ---------------------------------------------------------------------------

BandwidthPanel
planBandwidthPanel(const sim::DeviceSpec &dev, bool dry,
                   suite::BandwidthConfig &cfg)
{
    BandwidthPanel panel;
    panel.device = dev.name;
    panel.peakBwGBs = dev.peakBwGBs;

    if (dev.mobile) {
        panel.strides = {1, 2, 4, 6, 8, 10, 12, 14, 16};
        cfg.threads = dry ? 1024 : 4096;
        cfg.rounds = dry ? 8 : 32;
    } else {
        panel.strides = {1, 4, 8, 12, 16, 20, 24, 28, 32};
        cfg.threads = dry ? 2048 : 16384;
        cfg.rounds = dry ? 8 : 64;
    }
    cfg.repeats = dry ? 1 : 3;

    for (int a = 0; a < sim::apiCount; ++a)
        if (dev.profile(static_cast<Api>(a)).available)
            panel.apiRun[a] = true;
    return panel;
}

void
runBandwidthPanelApi(BandwidthPanel &panel, Api api,
                     const sim::DeviceSpec &dev,
                     const suite::BandwidthConfig &cfg)
{
    panel.points[static_cast<int>(api)] =
        suite::runBandwidthSweep(dev, api, panel.strides, cfg);
}

std::string
renderBandwidthSection(const std::vector<BandwidthPanel> &panels,
                       bool mobile, bool dry)
{
    std::string out;
    if (dry)
        out += "(dry run: reduced sizes, figures not "
               "paper-comparable)\n";
    const char *fig = mobile ? "3" : "1";
    for (const BandwidthPanel &panel : panels) {
        out += strprintf("=== Fig. %s: %s (peak %.1f GB/s) ===\n", fig,
                         panel.device.c_str(), panel.peakBwGBs);
        int vk = static_cast<int>(Api::Vulkan);
        std::vector<std::string> headers = {"stride (4B elems)"};
        for (int a = 0; a < sim::apiCount; ++a)
            if (panel.apiRun[a])
                headers.push_back(
                    std::string(sim::apiName(static_cast<Api>(a))) +
                    " GB/s");
        if (panel.apiRun[vk])
            headers.push_back("Vulkan %peak");
        Table table(headers);
        for (size_t i = 0; i < panel.strides.size(); ++i) {
            std::vector<std::string> cells = {
                strprintf("%u", panel.strides[i])};
            for (int a = 0; a < sim::apiCount; ++a)
                if (panel.apiRun[a])
                    cells.push_back(
                        fmtF(panel.points[a][i].gbPerSec, 3));
            if (panel.apiRun[vk])
                cells.push_back(fmtF(panel.points[vk][i].gbPerSec /
                                         panel.peakBwGBs * 100.0,
                                     1));
            table.addRow(cells);
        }
        out += table.render();
        out += "\nunit stride:";
        bool first = true;
        for (int a = 0; a < sim::apiCount; ++a) {
            if (!panel.apiRun[a])
                continue;
            double gbs = panel.points[a][0].gbPerSec;
            out += strprintf("%s %s %.2f GB/s (%.1f%% of peak)",
                             first ? "" : ",",
                             sim::apiName(static_cast<Api>(a)), gbs,
                             gbs / panel.peakBwGBs * 100.0);
            first = false;
        }
        out += "\n\n";
    }
    out += mobile
               ? "paper anchors: Nexus unit stride OpenCL 2.85 GB/s "
                 "(89%) vs Vulkan 2.69 GB/s (84%); Snapdragon Vulkan "
                 "worse below 16 B strides (push-constant rebind "
                 "quirk), converging above\n"
               : "paper anchors: GTX1050Ti unit stride 79.6% (Vulkan) "
                 "/ 84% (CUDA) of the 112 GB/s peak; RX560 71.6% / "
                 "71.5% (Vulkan/OpenCL); Vulkan slightly ahead beyond "
                 "64 B strides on both\n";
    return out;
}

// ---------------------------------------------------------------------------
// Oversubscribed-bandwidth sweep (UVM parts)
// ---------------------------------------------------------------------------

OversubPanel
planOversubPanel(const sim::DeviceSpec &dev, bool dry,
                 suite::OversubConfig &cfg)
{
    OversubPanel panel;
    panel.device = dev.name;
    panel.heapBytes = dev.deviceHeapBytes;
    panel.derate = dev.uvmOversubBwDerate;
    if (!dev.uvmPagingEnabled())
        return panel; // hard-cap part: nothing to sweep
    cfg.factors = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
    cfg.rounds = dry ? 8 : 32;
    cfg.repeats = dry ? 1 : 3;
    panel.factors = cfg.factors;
    for (int a = 0; a < sim::apiCount; ++a)
        if (dev.profile(static_cast<Api>(a)).available)
            panel.apiRun[a] = true;
    return panel;
}

void
runOversubPanelApi(OversubPanel &panel, Api api,
                   const sim::DeviceSpec &dev,
                   const suite::OversubConfig &cfg)
{
    panel.points[static_cast<int>(api)] =
        suite::runOversubSweep(dev, api, cfg);
}

std::string
renderOversubSection(const std::vector<OversubPanel> &panels, bool dry)
{
    std::string out;
    out += "Unit-stride read bandwidth as the working set grows past "
           "the modeled\ndevice-local heap on the unified-memory "
           "parts: factors <= 1.0 stay\ndevice-local, factors > 1.0 "
           "page through the shared pool and pay\nfirst-touch "
           "migration plus the oversubscribed-bandwidth derate.  Each\n"
           "factor runs in a fresh context, so points are independent "
           "and the\ncurve is the paging model itself, not allocator "
           "history.\n";
    if (dry)
        out += "(dry run: reduced rounds/repeats; the knee's position "
               "is the point,\nnot the absolute GB/s)\n";
    bool any = false;
    for (const OversubPanel &panel : panels) {
        if (panel.factors.empty())
            continue;
        any = true;
        out += strprintf("\n--- %s (heap %llu KiB, derate %.2f) ---\n",
                         panel.device.c_str(),
                         (unsigned long long)(panel.heapBytes >> 10),
                         panel.derate);
        std::vector<std::string> headers = {"factor", "working set"};
        for (int a = 0; a < sim::apiCount; ++a)
            if (panel.apiRun[a]) {
                std::string api = sim::apiName(static_cast<Api>(a));
                headers.push_back(api + " GB/s");
                headers.push_back(api + " migrated");
                headers.push_back(api + " fault ms");
            }
        Table table(headers);
        for (size_t i = 0; i < panel.factors.size(); ++i) {
            std::vector<std::string> cells = {
                fmtF(panel.factors[i], 2)};
            bool have_ws = false;
            for (int a = 0; a < sim::apiCount; ++a) {
                if (!panel.apiRun[a])
                    continue;
                const suite::OversubPoint &p = panel.points[a][i];
                if (!have_ws) {
                    cells.insert(
                        cells.begin() + 1,
                        strprintf("%llu KiB",
                                  (unsigned long long)(
                                      p.workingSetBytes >> 10)));
                    have_ws = true;
                }
                cells.push_back(fmtF(p.gbPerSec, 3));
                cells.push_back(strprintf(
                    "%llu KiB",
                    (unsigned long long)(p.migratedBytes >> 10)));
                cells.push_back(fmtF(p.faultNs / 1e6, 3));
            }
            if (!have_ws)
                cells.insert(cells.begin() + 1, "-");
            table.addRow(cells);
        }
        out += table.render();
    }
    if (!any)
        out += "\n(no unified-memory parts with uvm_oversubscription "
               "> 1 in the\nregistry — add one under devices/ to "
               "populate this section)\n";
    return out;
}

// ---------------------------------------------------------------------------
// Speedup figures (Figs. 2 and 4)
// ---------------------------------------------------------------------------

std::string
renderSpeedupSection(const std::vector<FigureData> &figures, bool mobile,
                     uint64_t scale)
{
    std::string out;
    if (scale > 1)
        out += strprintf("(dry run: sizes / %llu, figures not "
                         "paper-comparable)\n",
                         (unsigned long long)scale);
    for (const FigureData &fig : figures) {
        for (const auto &skip : fig.wholesaleSkips)
            out += strprintf("skipped wholesale on %s: %s — %s\n",
                             fig.dev->name.c_str(), skip.first.c_str(),
                             skip.second.c_str());
        out += formatSpeedupFigure(fig);
        out += "\n";
        if (!fig.allValidated())
            out += "WARNING: some runs failed validation!\n";
    }
    out += mobile ? "paper anchors: Nexus geomean Vulkan/OpenCL 1.59x; "
                    "Snapdragon 0.83x\n"
                  : "paper anchors: GTX1050Ti geomean Vulkan/OpenCL "
                    "1.66x, Vulkan/CUDA 1.53x; RX560 Vulkan/OpenCL "
                    "1.26x\n";
    return out;
}

// ---------------------------------------------------------------------------
// Tables I–III
// ---------------------------------------------------------------------------

std::string
renderTab1Section()
{
    std::string out = "TABLE I: VComputeBench benchmarks\n\n";
    Table table({"Name", "Application", "Dwarf", "Domain",
                 "Vulkan submit strategies"});
    for (const suite::Benchmark *b : suite::registry()) {
        // The smallest desktop size decides the program shape; the
        // strategy set is a property of the host structure, not the
        // input scale.
        suite::Workload w = b->workload(b->desktopSizes()[0]);
        std::string strategies;
        for (suite::SubmitStrategy s : suite::applicableStrategies(w)) {
            if (!strategies.empty())
                strategies += ", ";
            strategies += suite::strategyName(s);
            if (s == w.preferred)
                strategies += "*";
        }
        table.addRow({b->name(), b->fullName(), b->dwarf(), b->domain(),
                      strategies});
    }
    out += table.render();
    out += "\n(paper Table I lists the first nine rows; srad, kmeans"
           " and streamcluster\nextend the suite with the same"
           " Rodinia-derived methodology.  * = the strategy\nthe"
           " paper's method prefers; every strategy listed for a"
           " benchmark produces\nbit-identical outputs — see"
           " bench/abl_command_buffer and tests/test_workload.)\n";
    return out;
}

std::string
renderTab23Section(const std::vector<sim::DeviceSpec> &devices)
{
    std::string out;
    for (bool mobile : {false, true}) {
        out += mobile
                   ? "TABLE III: Mobile GPUs experimental setup\n\n"
                   : "TABLE II: Desktop GPUs experimental setup\n\n";
        Table table({"Device", "Platform", "OpenCL", "CUDA", "Vulkan",
                     "Heap", "Push"});
        for (const auto &dev : devices) {
            if (dev.mobile != mobile)
                continue;
            auto ver = [&](Api api) {
                const auto &p = dev.profile(api);
                return p.available ? p.version : std::string("-");
            };
            table.addRow(
                {dev.name, dev.platform, ver(Api::OpenCl),
                 ver(Api::Cuda), ver(Api::Vulkan),
                 strprintf("%llu MiB",
                           (unsigned long long)(dev.deviceHeapBytes >>
                                                20)),
                 strprintf("%u B", dev.maxPushBytes)});
        }
        out += table.render();
        out += "\n";
    }
    out += "(the paper's parts are the GTX 1050 Ti, RX 560, Adreno "
           "506 and PowerVR\nG6430; any other row is a post-paper "
           "expansion part defined entirely by\nits spec file under "
           "devices/)\n";
    return out;
}

// ---------------------------------------------------------------------------
// Suite sweep
// ---------------------------------------------------------------------------

bool
ReportBook::allValidated() const
{
    for (const DeviceReport &report : devices) {
        if (!report.figure.allValidated())
            return false;
        for (const SweepRun &run : report.strategySweep)
            if (run.result.ok && !run.result.validated)
                return false;
        for (const OverlapRun &run : report.overlapSweep)
            if (run.result.ok && !run.result.validated)
                return false;
    }
    return true;
}

ReportBook
buildReportBook(const std::vector<sim::DeviceSpec> &devices, bool dry,
                unsigned jobs)
{
    ReportBook book;
    book.dry = dry;
    book.devices.resize(devices.size());

    // Plan the whole run as independent cells before executing any:
    // every result slot is preallocated on the main thread, each cell
    // writes only its own slot, and the merge is therefore structural
    // (plan order) no matter which worker finishes when.  Cells
    // resolve their device by INDEX against the executing worker's
    // private registry (sim::activeDeviceRegistry()[di]) — the Vulkan
    // front-end resolves specs by object identity, so a cell must use
    // its own session's copy, never the planning-time reference.
    std::vector<std::function<void()>> plan;
    std::vector<std::vector<FigureCell>> fig_cells(devices.size());

    for (size_t di = 0; di < devices.size(); ++di) {
        const sim::DeviceSpec &dev = devices[di];
        DeviceReport &report = book.devices[di];
        report.dev = &dev;

        // Bandwidth sweep: one cell per available API column.
        suite::BandwidthConfig bw_cfg;
        report.bandwidth = planBandwidthPanel(dev, dry, bw_cfg);
        for (int a = 0; a < sim::apiCount; ++a) {
            if (!report.bandwidth.apiRun[a])
                continue;
            Api api = static_cast<Api>(a);
            plan.push_back([&book, di, api, bw_cfg] {
                runBandwidthPanelApi(book.devices[di].bandwidth, api,
                                     sim::activeDeviceRegistry()[di],
                                     bw_cfg);
            });
        }

        // Speedup figure: one cell per (bench x size, API) row slot.
        uint64_t scale = speedupScale(dev.mobile, dry);
        report.figure =
            planSpeedupFigure(dev, dev.mobile, scale, fig_cells[di]);
        for (size_t ci = 0; ci < fig_cells[di].size(); ++ci) {
            plan.push_back([&book, &fig_cells, di, ci] {
                runFigureCell(book.devices[di].figure,
                              fig_cells[di][ci],
                              sim::activeDeviceRegistry()[di]);
            });
        }

        // Oversubscription sweep: one cell per available API column
        // (plans empty on non-UVM parts).
        suite::OversubConfig os_cfg;
        report.oversub = planOversubPanel(dev, dry, os_cfg);
        for (int a = 0; a < sim::apiCount; ++a) {
            if (!report.oversub.apiRun[a])
                continue;
            Api api = static_cast<Api>(a);
            plan.push_back([&book, di, api, os_cfg] {
                runOversubPanelApi(book.devices[di].oversub, api,
                                   sim::activeDeviceRegistry()[di],
                                   os_cfg);
            });
        }

        if (!dev.profile(Api::Vulkan).available)
            continue;

        for (const suite::Benchmark *bench : suite::registry()) {
            auto sizes = bench->sizesFor(dev);
            if (sizes.empty())
                continue;
            suite::SizeConfig cfg = scaleConfig(sizes.front(), scale);
            // One planning-time workload build enumerates the
            // admissible strategies and the dag flag — both are
            // properties of the program shape, not the input scale.
            suite::Workload w = bench->workload(cfg);

            // Vulkan submission-strategy sweep at the smallest size:
            // one cell per admissible strategy.
            for (suite::SubmitStrategy s :
                 suite::applicableStrategies(w)) {
                SweepRun run;
                run.bench = bench->name();
                run.size = sizes.front().label;
                run.api = Api::Vulkan;
                run.strategy = s;
                run.preferred = s == w.preferred;
                size_t slot = report.strategySweep.size();
                report.strategySweep.push_back(std::move(run));
                plan.push_back([&book, di, slot, cfg, s] {
                    SweepRun &out =
                        book.devices[di].strategySweep[slot];
                    suite::WorkloadOptions opts;
                    opts.strategy = s;
                    out.result = suite::byName(out.bench).run(
                        sim::activeDeviceRegistry()[di], Api::Vulkan,
                        cfg, opts);
                });
            }

            // Multi-queue overlap sweep: dag benchmarks at their
            // largest paper size, deliberately NOT dry-shrunk —
            // overlap only shows when per-chunk kernel time dominates
            // per-submit overhead, and a shrunken size would render a
            // flat (misleading) curve.  Simulated runs stay cheap in
            // real time.  One cell per benchmark (not per queue
            // count): the three runs share one full-size workload
            // build, like the serial path always did.
            if (!w.dag)
                continue;
            size_t slot = report.overlapSweep.size();
            for (uint32_t q : {1u, 2u, 4u}) {
                OverlapRun run;
                run.bench = bench->name();
                run.size = sizes.back().label;
                run.queues = q;
                report.overlapSweep.push_back(std::move(run));
            }
            suite::SizeConfig full = sizes.back();
            plan.push_back([&book, di, slot, full] {
                DeviceReport &rep = book.devices[di];
                const sim::DeviceSpec &d =
                    sim::activeDeviceRegistry()[di];
                suite::Workload full_w =
                    suite::byName(rep.overlapSweep[slot].bench)
                        .workload(full);
                for (size_t i = 0; i < 3; ++i) {
                    OverlapRun &out = rep.overlapSweep[slot + i];
                    suite::WorkloadOptions opts;
                    opts.strategy = suite::SubmitStrategy::ReRecord;
                    opts.queueCount = out.queues;
                    out.result =
                        suite::runWorkloadVulkan(full_w, d, opts);
                }
            });
        }
    }

    SweepOptions opts;
    opts.jobs = jobs;
    opts.devices = devices;
    SweepStats stats = runSweepPlan(
        plan.size(), [&plan](size_t cell) { plan[cell](); }, opts);
    book.jobs = stats.jobs;
    book.cells = stats.cells;
    book.sweepWallMs = stats.wallMs;
    for (double ms : stats.cellSimMs)
        book.sweepSimMs += ms;
    return book;
}

std::string
renderStrategySection(const ReportBook &book)
{
    std::string out;
    out += "Every benchmark x admissible Vulkan submission strategy "
           "at the smallest\npaper size (strategies are derived from "
           "the declared program shape;\noutputs are bit-identical "
           "across a benchmark's strategies — the numbers\nbelow "
           "differ only in submission overhead).  * = the workload's "
           "preferred\nstrategy, the one the figures above report.\n";
    for (const DeviceReport &report : book.devices) {
        if (report.strategySweep.empty())
            continue;
        out += strprintf("\n--- %s ---\n", report.dev->name.c_str());
        Table table({"bench", "size", "strategy", "kernel-region ns",
                     "launches", "note"});
        for (const SweepRun &run : report.strategySweep) {
            // Tag the preferred strategy like Table I does.
            std::string name = suite::strategyName(run.strategy);
            if (run.preferred)
                name += "*";
            std::string note;
            if (!run.result.ok)
                note = run.result.skipReason;
            else if (!run.result.validated)
                note = "VALIDATION FAILED";
            table.addRow(
                {run.bench, run.size, name,
                 run.result.ok ? strprintf("%.0f",
                                           run.result.kernelRegionNs)
                               : "-",
                 run.result.ok
                     ? strprintf("%llu", (unsigned long long)
                                             run.result.launches)
                     : "-",
                 note});
        }
        out += table.render();
    }
    return out;
}

std::string
renderOverlapSection(const ReportBook &book)
{
    std::string out;
    out += "The dag workloads (declared per-step dependencies) spread "
           "independent\ndispatch chains across the device's compute "
           "queues, joined by semaphores;\ntransfers ride the transfer "
           "queue.  Outputs are bit-identical at every\nqueue count — "
           "only the simulated timeline moves.  busy/elapsed > 1 is\n"
           "the signature of genuine overlap; parts exposing a single "
           "compute queue\n(the mobiles) show a flat curve by "
           "construction.\n";
    for (const DeviceReport &report : book.devices) {
        if (report.overlapSweep.empty())
            continue;
        out += strprintf("\n--- %s (%u compute queue%s) ---\n",
                         report.dev->name.c_str(),
                         report.dev->computeQueueCount,
                         report.dev->computeQueueCount == 1 ? "" : "s");
        Table table({"bench", "size", "queues", "kernel-region ns",
                     "busy/elapsed", "speedup", "note"});
        std::map<std::string, double> base;
        for (const OverlapRun &run : report.overlapSweep) {
            std::string note;
            if (!run.result.ok)
                note = run.result.skipReason;
            else if (!run.result.validated)
                note = "VALIDATION FAILED";
            if (!run.result.ok) {
                table.addRow({run.bench, run.size,
                              strprintf("%u", run.queues), "-", "-",
                              "-", note});
                continue;
            }
            if (run.queues == 1)
                base[run.bench] = run.result.kernelRegionNs;
            if (note.empty() && run.result.queuesUsed != run.queues)
                note = strprintf("clamped to %u",
                                 run.result.queuesUsed);
            table.addRow(
                {run.bench, run.size, strprintf("%u", run.queues),
                 strprintf("%.0f", run.result.kernelRegionNs),
                 fmtF(run.result.deviceBusyNs /
                          run.result.kernelRegionNs,
                      2),
                 fmtF(base[run.bench] / run.result.kernelRegionNs, 2) +
                     "x",
                 note});
        }
        out += table.render();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

std::string
deviceSlug(const std::string &device_name)
{
    std::string slug;
    for (char c : device_name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            slug += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!slug.empty() && slug.back() != '-')
            slug += '-';
    }
    while (!slug.empty() && slug.back() == '-')
        slug.pop_back();
    return slug.empty() ? "device" : slug;
}

std::string
deviceCsv(const DeviceReport &report)
{
    Table table({"device", "bench", "size", "api", "strategy",
                 "kernel_region_ns", "total_ns", "launches",
                 "migrated_bytes", "fault_ns", "ok", "validated",
                 "note"});
    const std::string &dev = report.dev->name;
    for (const SpeedupRow &row : report.figure.rows) {
        for (int a = 0; a < sim::apiCount; ++a) {
            Api api = static_cast<Api>(a);
            table.addRow(
                {dev, row.bench, row.sizeLabel, sim::apiName(api),
                 row.ok[a] ? row.strategy[a] : "-",
                 row.ok[a] ? strprintf("%.0f", row.ns[a]) : "-",
                 row.ok[a] ? strprintf("%.0f", row.totalNs[a]) : "-",
                 row.ok[a] ? strprintf("%llu", (unsigned long long)
                                                   row.launches[a])
                           : "-",
                 row.ok[a] ? strprintf("%llu",
                                       (unsigned long long)
                                           row.migratedBytes[a])
                           : "-",
                 row.ok[a] ? strprintf("%.0f", row.faultNs[a]) : "-",
                 row.ok[a] ? "true" : "false",
                 row.validated[a] ? "true" : "false", row.skip[a]});
        }
    }
    for (const SweepRun &run : report.strategySweep) {
        const suite::RunResult &r = run.result;
        table.addRow(
            {dev, run.bench, run.size, sim::apiName(run.api),
             suite::strategyName(run.strategy),
             r.ok ? strprintf("%.0f", r.kernelRegionNs) : "-",
             r.ok ? strprintf("%.0f", r.totalNs) : "-",
             r.ok ? strprintf("%llu", (unsigned long long)r.launches)
                  : "-",
             r.ok ? strprintf("%llu",
                              (unsigned long long)r.migratedBytes)
                  : "-",
             r.ok ? strprintf("%.0f", r.faultNs) : "-",
             r.ok ? "true" : "false", r.validated ? "true" : "false",
             r.skipReason});
    }
    return table.csv();
}

namespace {

/** JSON string literal with escaping (quotes, backslashes, control
 *  characters) — spec files accept arbitrary free text for names. */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out + "\"";
}

// Shared line emitters: the --suite-json trajectory (suiteJsonLines)
// and the --out artifact (suiteJsonFromBook) must never drift in
// shape, so both build every line through these.

std::string
jsonWholesaleSkipLine(const std::string &bench,
                      const std::string &dev_name,
                      const std::string &reason)
{
    return strprintf("{\"bench\": %s, \"device\": %s, "
                     "\"skipped\": %s}\n",
                     jsonStr(bench).c_str(), jsonStr(dev_name).c_str(),
                     jsonStr(reason).c_str());
}

std::string
jsonSkipLine(const std::string &bench, const std::string &size, Api api,
             const std::string &dev_name, const std::string &reason)
{
    return strprintf("{\"bench\": %s, \"size\": %s, \"api\": \"%s\", "
                     "\"device\": %s, \"skipped\": %s}\n",
                     jsonStr(bench).c_str(), jsonStr(size).c_str(),
                     sim::apiName(api), jsonStr(dev_name).c_str(),
                     jsonStr(reason).c_str());
}

std::string
jsonRunLine(const std::string &bench, const std::string &size, Api api,
            const std::string &dev_name, const std::string &strategy,
            double kernel_ns, double total_ns, uint64_t launches,
            bool validated, uint64_t migrated_bytes, double fault_ns)
{
    return strprintf("{\"bench\": %s, \"size\": %s, \"api\": \"%s\", "
                     "\"device\": %s, \"strategy\": %s, "
                     "\"kernel_region_ns\": %.0f, \"total_ns\": %.0f, "
                     "\"launches\": %llu, \"validated\": %s, "
                     "\"migrated_bytes\": %llu, \"fault_ns\": %.0f}\n",
                     jsonStr(bench).c_str(), jsonStr(size).c_str(),
                     sim::apiName(api), jsonStr(dev_name).c_str(),
                     jsonStr(strategy).c_str(), kernel_ns, total_ns,
                     (unsigned long long)launches,
                     validated ? "true" : "false",
                     (unsigned long long)migrated_bytes, fault_ns);
}

std::string
jsonDeviceSummary(const char *mode, const std::string &dev_name,
                  double kernel_ns, bool validated)
{
    return strprintf("{\"bench\": \"suite\", \"mode\": \"%s\", "
                     "\"device\": %s, \"kernel_region_ns\": %.0f, "
                     "\"validated\": %s}\n",
                     mode, jsonStr(dev_name).c_str(), kernel_ns,
                     validated ? "true" : "false");
}

std::string
jsonSuiteTrailer(const char *mode, size_t device_count, bool validated)
{
    return strprintf("{\"bench\": \"report\", \"mode\": \"%s\", "
                     "\"devices\": %zu, \"validated\": %s}\n",
                     mode, device_count, validated ? "true" : "false");
}

} // namespace

std::string
suiteJsonFromBook(const ReportBook &book)
{
    const char *mode = book.dry ? "dry-run" : "full";
    std::string out;
    bool all_ok = true;
    for (const DeviceReport &report : book.devices) {
        const std::string &dev = report.dev->name;
        for (const auto &skip : report.figure.wholesaleSkips)
            out += jsonWholesaleSkipLine(skip.first, dev, skip.second);
        double device_kernel_ns = 0;
        bool device_ok = true;
        for (const SpeedupRow &row : report.figure.rows) {
            for (int a = 0; a < sim::apiCount; ++a) {
                Api api = static_cast<Api>(a);
                if (!report.dev->profile(api).available)
                    continue;
                if (!row.ok[a]) {
                    out += jsonSkipLine(row.bench, row.sizeLabel, api,
                                        dev, row.skip[a]);
                    continue;
                }
                device_ok = device_ok && row.validated[a];
                device_kernel_ns += row.ns[a];
                out += jsonRunLine(row.bench, row.sizeLabel, api, dev,
                                   row.strategy[a], row.ns[a],
                                   row.totalNs[a], row.launches[a],
                                   row.validated[a],
                                   row.migratedBytes[a],
                                   row.faultNs[a]);
            }
        }
        out += jsonDeviceSummary(mode, dev, device_kernel_ns,
                                 device_ok);
        all_ok = all_ok && device_ok;
    }
    out += jsonSuiteTrailer(mode, book.devices.size(), all_ok);
    return out;
}

namespace {

/** Sweep-executor ledger line: the ONLY wall-clock-derived line in the
 *  --suite-json output (everything above it is simulated and
 *  deterministic), so diff-based consumers filter it with
 *  grep -v '"bench": "sweep"'.  `slowest_cell_ms` is the longest
 *  single cell — the lower bound any job count can reach. */
std::string
jsonSweepLedger(const char *mode, const SweepStats &stats)
{
    double sim_ms = 0, slowest = 0;
    for (double ms : stats.cellSimMs)
        sim_ms += ms;
    for (double ms : stats.cellWallMs)
        slowest = std::max(slowest, ms);
    return strprintf("{\"bench\": \"sweep\", \"mode\": \"%s\", "
                     "\"jobs\": %u, \"cells\": %zu, "
                     "\"sweep_wall_ms\": %.1f, \"sweep_sim_ms\": %.1f, "
                     "\"slowest_cell_ms\": %.1f}\n",
                     mode, stats.jobs, stats.cells, stats.wallMs,
                     sim_ms, slowest);
}

} // namespace

std::string
suiteJsonLines(const std::vector<sim::DeviceSpec> &devices, bool quick,
               bool *all_validated, unsigned jobs)
{
    const char *mode = quick ? "quick" : "full";

    // Plan: one cell per (device, benchmark); each renders its own
    // line chunk and partial sums into a preallocated slot, so the
    // plan-order merge below is byte-identical at any job count.
    struct Chunk
    {
        std::string lines;
        double kernelNs = 0;
        bool ok = true;
    };
    const auto &benches = suite::registry();
    std::vector<Chunk> chunks(devices.size() * benches.size());

    auto run_chunk = [&](size_t cell) {
        size_t di = cell / benches.size();
        const suite::Benchmark *bench = benches[cell % benches.size()];
        const sim::DeviceSpec &dev = sim::activeDeviceRegistry()[di];
        Chunk &out = chunks[cell];
        auto sizes = bench->sizesFor(dev);
        if (sizes.empty()) {
            out.lines =
                jsonWholesaleSkipLine(bench->name(), dev.name,
                                      bench->mobileSkipReason(dev));
            return;
        }
        const suite::SizeConfig &cfg =
            quick ? sizes.front() : sizes.back();
        for (int a = 0; a < sim::apiCount; ++a) {
            Api api = static_cast<Api>(a);
            if (!dev.profile(api).available)
                continue;
            suite::RunResult r = bench->run(dev, api, cfg);
            if (!r.ok) {
                out.lines += jsonSkipLine(bench->name(), cfg.label,
                                          api, dev.name, r.skipReason);
                continue;
            }
            out.ok = out.ok && r.validated;
            out.kernelNs += r.kernelRegionNs;
            out.lines += jsonRunLine(bench->name(), cfg.label, api,
                                     dev.name, r.strategy,
                                     r.kernelRegionNs, r.totalNs,
                                     r.launches, r.validated,
                                     r.migratedBytes, r.faultNs);
        }
    };

    SweepOptions sweep_opts;
    sweep_opts.jobs = jobs;
    sweep_opts.devices = devices;
    SweepStats stats =
        runSweepPlan(chunks.size(), run_chunk, sweep_opts);

    std::string out;
    bool all_ok = true;
    for (size_t di = 0; di < devices.size(); ++di) {
        double device_kernel_ns = 0;
        bool device_ok = true;
        for (size_t bi = 0; bi < benches.size(); ++bi) {
            const Chunk &c = chunks[di * benches.size() + bi];
            out += c.lines;
            device_kernel_ns += c.kernelNs;
            device_ok = device_ok && c.ok;
        }
        out += jsonDeviceSummary(mode, devices[di].name,
                                 device_kernel_ns, device_ok);
        all_ok = all_ok && device_ok;
    }
    out += jsonSuiteTrailer(mode, devices.size(), all_ok);
    out += jsonSweepLedger(mode, stats);
    if (all_validated)
        *all_validated = all_ok;
    return out;
}

// ---------------------------------------------------------------------------
// The Markdown results book
// ---------------------------------------------------------------------------

namespace {

void
addFencedSection(std::string &out, const std::string &heading,
                 const std::string &intro, const std::string &body)
{
    out += "## " + heading + "\n\n";
    if (!intro.empty())
        out += intro + "\n\n";
    out += "```\n";
    out += body;
    if (!body.empty() && body.back() != '\n')
        out += "\n";
    out += "```\n\n";
}

} // namespace

std::string
renderResultsBook(const ReportBook &book)
{
    size_t desktop = 0, mobile = 0;
    for (const DeviceReport &r : book.devices)
        (r.dev->mobile ? mobile : desktop)++;

    std::string out;
    out += "<!-- GENERATED FILE — do not edit by hand.\n"
           "     Regenerate from the repo root with:\n"
           "         build/tools/vcb_report --dry-run > "
           "docs/RESULTS.md\n"
           "     The check_results_book test fails when this file "
           "drifts from a\n"
           "     regeneration.  The book builds on the sweep executor\n"
           "     (src/harness/sweep.h); every number comes from "
           "simulated clocks, so\n"
           "     this file is byte-identical at any --jobs worker "
           "count\n"
           "     (tests/test_sweep.cc enforces it). -->\n\n";
    out += "# VComputeBench results book\n\n";
    out += strprintf(
        "One artifact for the paper's whole measurement story: "
        "generated by\n`vcb_report` from the device registry "
        "(%zu devices: %zu desktop, %zu mobile,\nall loaded from "
        "`devices/*.dev` spec files — see "
        "[DEVICE_MODEL.md](DEVICE_MODEL.md)),\nrunning every "
        "registered benchmark under every available API and every\n"
        "admissible Vulkan submission strategy on the simulated "
        "devices\n([ARCHITECTURE.md](ARCHITECTURE.md)).\n\n",
        book.devices.size(), desktop, mobile);
    if (book.dry)
        out += "**Dry-run scale**: sizes are shrunk so CI can "
               "regenerate and diff this\nbook on every build; "
               "numbers exercise the full pipeline but are *not*\n"
               "paper-comparable.  `build/tools/vcb_report --out "
               "report` writes the\npaper-scale artifact tree "
               "(per-device CSVs, suite JSON, this book).\n\n";

    std::string device_list;
    for (const DeviceReport &r : book.devices)
        device_list += strprintf("- %s (%s, %s)\n",
                                 r.dev->name.c_str(),
                                 r.dev->mobile ? "mobile" : "desktop",
                                 r.dev->vendor.c_str());
    out += "Devices, registry order:\n\n" + device_list + "\n";

    addFencedSection(
        out, "Table I — benchmarks and submission strategies",
        "Straight from the suite registry; a new benchmark family "
        "appears here\n(and in every figure below) the moment it "
        "registers.",
        renderTab1Section());

    std::vector<sim::DeviceSpec> specs;
    for (const DeviceReport &r : book.devices)
        specs.push_back(*r.dev);
    addFencedSection(out, "Tables II & III — experimental setup",
                     "From the loaded device registry: the paper's "
                     "four parts plus the\nspec-file-only expansion "
                     "devices.",
                     renderTab23Section(specs));

    std::vector<BandwidthPanel> desktop_bw, mobile_bw;
    std::vector<FigureData> desktop_figs, mobile_figs;
    for (const DeviceReport &r : book.devices) {
        if (r.dev->mobile) {
            mobile_bw.push_back(r.bandwidth);
            mobile_figs.push_back(r.figure);
        } else {
            desktop_bw.push_back(r.bandwidth);
            desktop_figs.push_back(r.figure);
        }
    }

    addFencedSection(
        out, "Figure 1 — strided memory bandwidth, desktop",
        "Useful-byte bandwidth of the strided-read sweep under every "
        "available\nAPI (paper Sec. V-A1).",
        renderBandwidthSection(desktop_bw, false, book.dry));
    addFencedSection(
        out, "Figure 2 — per-benchmark speedups vs OpenCL, desktop",
        "Kernel-region speedups against the OpenCL baseline at the "
        "preferred\nsubmission strategy (paper Sec. V-A2).",
        renderSpeedupSection(desktop_figs, false,
                             speedupScale(false, book.dry)));
    addFencedSection(
        out, "Figure 3 — strided memory bandwidth, mobile",
        "The mobile strided sweep (paper Sec. V-B1); the Snapdragon "
        "push-constant\nquirk shows below 16-byte strides.",
        renderBandwidthSection(mobile_bw, true, book.dry));
    addFencedSection(
        out, "Figure 4 — per-benchmark speedups vs OpenCL, mobile",
        "Mobile speedups with the paper's wholesale skips and driver "
        "failures\nreproduced through the driver profiles (paper "
        "Sec. V-B2).",
        renderSpeedupSection(mobile_figs, true,
                             speedupScale(true, book.dry)));

    addFencedSection(out, "Vulkan submission-strategy sweep",
                     "The report layer's own axis beyond the paper: "
                     "every admissible\nstrategy per benchmark, so "
                     "command-buffer wins/losses are visible\n"
                     "per device.",
                     renderStrategySection(book));

    addFencedSection(out, "Multi-queue overlap curves",
                     "The paper's last recommendation made "
                     "measurable: independent dispatch\nchains "
                     "spread across compute queues (paper Sec. VI-B), "
                     "at paper-scale\nsizes even in the dry book.",
                     renderOverlapSection(book));

    std::vector<OversubPanel> oversub_panels;
    for (const DeviceReport &r : book.devices)
        oversub_panels.push_back(r.oversub);
    addFencedSection(
        out, "Oversubscribed-bandwidth sweep",
        "The unified-memory expansion parts page working sets past "
        "their modeled\ndevice-local heap instead of failing "
        "allocation (the paper's cfd skip\nmade tunable — see "
        "DEVICE_MODEL.md, UVM fields): bandwidth vs\nworking-set "
        "factor, with first-touch migration traffic itemized.",
        renderOversubSection(oversub_panels, book.dry));

    // Geomean summary as a native markdown table.
    out += "## Geomean summary\n\n";
    out += "| device | class | Vulkan/OpenCL | CUDA/OpenCL | "
           "Vulkan/CUDA | validated |\n";
    out += "|---|---|---|---|---|---|\n";
    for (const DeviceReport &r : book.devices) {
        auto fmtx = [](double v) {
            return v > 0 ? strprintf("%.2fx", v) : std::string("-");
        };
        bool has_cuda = r.dev->profile(Api::Cuda).available;
        out += strprintf(
            "| %s | %s | %s | %s | %s | %s |\n", r.dev->name.c_str(),
            r.dev->mobile ? "mobile" : "desktop",
            fmtx(r.figure.geomeanVsOpenCl(Api::Vulkan)).c_str(),
            has_cuda ? fmtx(r.figure.geomeanVsOpenCl(Api::Cuda)).c_str()
                     : "-",
            has_cuda ? fmtx(r.figure.geomeanVulkanVsCuda()).c_str()
                     : "-",
            r.figure.allValidated() ? "yes" : "**NO**");
    }
    out += "\n";
    out += "Figures and tables above are rendered by "
           "`src/harness/report_book.cc`.\n";
    return out;
}

} // namespace vcb::harness
