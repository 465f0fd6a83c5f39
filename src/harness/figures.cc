#include "harness/figures.h"

#include "common/logging.h"
#include "common/mathutil.h"
#include "harness/report.h"

namespace vcb::harness {

using sim::Api;

double
SpeedupRow::speedupVsOpenCl(Api api) const
{
    int a = static_cast<int>(api);
    int base = static_cast<int>(Api::OpenCl);
    if (!ok[a] || !ok[base] || ns[a] <= 0)
        return 0;
    return ns[base] / ns[a];
}

double
FigureData::geomeanVsOpenCl(Api api) const
{
    std::vector<double> speedups;
    for (const auto &row : rows) {
        double s = row.speedupVsOpenCl(api);
        if (s > 0)
            speedups.push_back(s);
    }
    return geomean(speedups);
}

double
FigureData::geomeanVulkanVsCuda() const
{
    std::vector<double> speedups;
    int vk = static_cast<int>(Api::Vulkan);
    int cu = static_cast<int>(Api::Cuda);
    for (const auto &row : rows)
        if (row.ok[vk] && row.ok[cu] && row.ns[vk] > 0)
            speedups.push_back(row.ns[cu] / row.ns[vk]);
    return geomean(speedups);
}

bool
FigureData::allValidated() const
{
    for (const auto &row : rows)
        for (int a = 0; a < sim::apiCount; ++a)
            if (row.ok[a] && !row.validated[a])
                return false;
    return true;
}

suite::SizeConfig
scaleConfig(const suite::SizeConfig &size, uint64_t scale)
{
    suite::SizeConfig cfg = size;
    if (scale > 1)
        for (auto &p : cfg.params)
            // Shrink toward a floor of 32 but never inflate: small
            // parameters (feature counts, iteration counts) pass
            // through unchanged.
            p = std::max<uint64_t>(p / scale,
                                   std::min<uint64_t>(p, 32));
    return cfg;
}

FigureData
planSpeedupFigure(const sim::DeviceSpec &dev, bool mobile,
                  uint64_t scale, std::vector<FigureCell> &cells)
{
    VCB_ASSERT(scale >= 1, "scale must be >= 1");
    FigureData fig;
    fig.dev = &dev;
    fig.mobile = mobile;

    for (const suite::Benchmark *bench : suite::registry()) {
        auto sizes = mobile ? bench->sizesFor(dev)
                            : bench->desktopSizes();
        if (mobile && sizes.empty()) {
            // cfd on hard-cap parts: skipped wholesale (Sec. V-B2);
            // UVM parts page instead and contribute rows.
            std::string reason = bench->mobileSkipReason(dev);
            inform("%s: skipped on %s: %s", bench->name().c_str(),
                   dev.name.c_str(), reason.c_str());
            fig.wholesaleSkips.push_back(
                {bench->name(), std::move(reason)});
            continue;
        }
        for (const auto &size : sizes) {
            SpeedupRow row;
            row.bench = bench->name();
            row.sizeLabel = size.label;
            for (int a = 0; a < sim::apiCount; ++a) {
                Api api = static_cast<Api>(a);
                if (!dev.profile(api).available) {
                    row.skip[a] = "API not available";
                    continue;
                }
                FigureCell cell;
                cell.row = fig.rows.size();
                cell.api = api;
                cell.cfg = scaleConfig(size, scale);
                cells.push_back(std::move(cell));
            }
            fig.rows.push_back(std::move(row));
        }
    }
    return fig;
}

void
runFigureCell(FigureData &fig, const FigureCell &cell,
              const sim::DeviceSpec &dev)
{
    SpeedupRow &row = fig.rows[cell.row];
    const suite::Benchmark &bench = suite::byName(row.bench);
    int a = static_cast<int>(cell.api);
    suite::RunResult r = bench.run(dev, cell.api, cell.cfg);
    row.ok[a] = r.ok;
    row.skip[a] = r.skipReason;
    row.ns[a] = r.kernelRegionNs;
    row.validated[a] = r.validated;
    row.strategy[a] = r.strategy;
    row.totalNs[a] = r.totalNs;
    row.launches[a] = r.launches;
    row.migratedBytes[a] = r.migratedBytes;
    row.faultNs[a] = r.faultNs;
    if (r.ok && !r.validated)
        warn("%s/%s on %s [%s]: validation FAILED: %s",
             row.bench.c_str(), row.sizeLabel.c_str(),
             dev.name.c_str(), sim::apiName(cell.api),
             r.validationError.c_str());
}

std::string
formatSpeedupFigure(const FigureData &fig)
{
    std::string out;
    out += strprintf("=== Speedup vs OpenCL on %s %s===\n",
                     fig.dev->name.c_str(),
                     fig.mobile ? "(mobile figure) " : "");

    bool has_cuda = fig.dev->profile(Api::Cuda).available;
    std::vector<std::string> headers = {"bench", "size", "OpenCL",
                                        "Vulkan", "vk submit"};
    if (has_cuda)
        headers.push_back("CUDA");
    headers.push_back("note");
    Table table(headers);

    std::vector<std::pair<std::string, double>> bars;
    for (const auto &row : fig.rows) {
        std::vector<std::string> cells = {row.bench, row.sizeLabel};
        int cl = static_cast<int>(Api::OpenCl);
        int vk_ix = static_cast<int>(Api::Vulkan);
        cells.push_back(row.ok[cl] ? "1.00" : "-");
        double vk = row.speedupVsOpenCl(Api::Vulkan);
        cells.push_back(vk > 0 ? fmtF(vk) : "-");
        cells.push_back(row.ok[vk_ix] ? row.strategy[vk_ix] : "-");
        if (has_cuda) {
            double cu = row.speedupVsOpenCl(Api::Cuda);
            cells.push_back(cu > 0 ? fmtF(cu) : "-");
        }
        std::string note;
        for (int a = 0; a < sim::apiCount; ++a)
            if (!row.ok[a] && !row.skip[a].empty() &&
                row.skip[a] != "API not available")
                note += std::string(sim::apiName(static_cast<Api>(a))) +
                        ": " + row.skip[a] + " ";
        cells.push_back(note);
        table.addRow(cells);
        if (vk > 0)
            bars.push_back({row.bench + "/" + row.sizeLabel, vk});
    }
    out += table.render();
    out += "\nVulkan speedup vs OpenCL (shape of the figure):\n";
    out += barChart(bars, "x");
    out += strprintf("\ngeomean Vulkan vs OpenCL: %.2fx\n",
                     fig.geomeanVsOpenCl(Api::Vulkan));
    if (has_cuda) {
        out += strprintf("geomean CUDA   vs OpenCL: %.2fx\n",
                         fig.geomeanVsOpenCl(Api::Cuda));
        out += strprintf("geomean Vulkan vs CUDA  : %.2fx\n",
                         fig.geomeanVulkanVsCuda());
    }
    return out;
}

} // namespace vcb::harness
