/** @file Reporting, figure-aggregation and report-book utilities. */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/figures.h"
#include "harness/report.h"
#include "harness/report_book.h"

namespace vcb::harness {
namespace {

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("name    value"), std::string::npos);
    EXPECT_NE(out.find("longer  22"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials)
{
    Table t({"a", "b"});
    t.addRow({"x,y", "quote\"inside"});
    std::string csv = t.csv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(BarChart, ScalesToMaximum)
{
    std::string chart = barChart({{"half", 2.0}, {"full", 4.0}}, "x", 10);
    // The max bar has 10 hashes, the half bar 5.
    EXPECT_NE(chart.find("full |##########"), std::string::npos);
    EXPECT_NE(chart.find("half |#####"), std::string::npos);
}

TEST(BarChart, HandlesEmptyAndZero)
{
    EXPECT_EQ(barChart({}, "x"), "");
    std::string z = barChart({{"zero", 0.0}}, "u");
    EXPECT_NE(z.find("zero"), std::string::npos);
}

TEST(FmtF, Precision)
{
    EXPECT_EQ(fmtF(1.2345, 2), "1.23");
    EXPECT_EQ(fmtF(1.0, 0), "1");
}

SpeedupRow
makeRow(const std::string &bench, double cl, double vk, double cu)
{
    SpeedupRow row;
    row.bench = bench;
    row.sizeLabel = "s";
    int icl = static_cast<int>(sim::Api::OpenCl);
    int ivk = static_cast<int>(sim::Api::Vulkan);
    int icu = static_cast<int>(sim::Api::Cuda);
    if (cl > 0) {
        row.ok[icl] = true;
        row.ns[icl] = cl;
        row.validated[icl] = true;
    }
    if (vk > 0) {
        row.ok[ivk] = true;
        row.ns[ivk] = vk;
        row.validated[ivk] = true;
    }
    if (cu > 0) {
        row.ok[icu] = true;
        row.ns[icu] = cu;
        row.validated[icu] = true;
    }
    return row;
}

TEST(SpeedupRow, RatioVsOpenClBaseline)
{
    SpeedupRow row = makeRow("x", 200, 100, 400);
    EXPECT_DOUBLE_EQ(row.speedupVsOpenCl(sim::Api::Vulkan), 2.0);
    EXPECT_DOUBLE_EQ(row.speedupVsOpenCl(sim::Api::Cuda), 0.5);
    EXPECT_DOUBLE_EQ(row.speedupVsOpenCl(sim::Api::OpenCl), 1.0);
}

TEST(SpeedupRow, MissingSidesYieldZero)
{
    SpeedupRow row = makeRow("x", 0, 100, 0);
    EXPECT_DOUBLE_EQ(row.speedupVsOpenCl(sim::Api::Vulkan), 0.0);
}

TEST(FigureData, GeomeansSkipMissingRows)
{
    FigureData fig;
    fig.dev = &sim::gtx1050ti();
    fig.rows.push_back(makeRow("a", 400, 100, 200)); // vk 4x, cuda 2x
    fig.rows.push_back(makeRow("b", 100, 100, 100)); // vk 1x
    fig.rows.push_back(makeRow("c", 0, 100, 0));     // skipped
    EXPECT_NEAR(fig.geomeanVsOpenCl(sim::Api::Vulkan), 2.0, 1e-9);
    EXPECT_NEAR(fig.geomeanVulkanVsCuda(), std::sqrt(2.0), 1e-9);
    EXPECT_TRUE(fig.allValidated());
}

TEST(FigureData, UnvalidatedRunsAreFlagged)
{
    FigureData fig;
    fig.dev = &sim::gtx1050ti();
    SpeedupRow row = makeRow("a", 100, 100, 0);
    row.validated[static_cast<int>(sim::Api::Vulkan)] = false;
    fig.rows.push_back(row);
    EXPECT_FALSE(fig.allValidated());
}

TEST(FigureData, FormatIncludesGeomeanAndNotes)
{
    FigureData fig;
    fig.dev = &sim::gtx1050ti();
    fig.rows.push_back(makeRow("bench1", 300, 100, 150));
    SpeedupRow skip = makeRow("bench2", 100, 0, 0);
    skip.skip[static_cast<int>(sim::Api::Vulkan)] = "driver failure: x";
    fig.rows.push_back(skip);
    std::string out = formatSpeedupFigure(fig);
    EXPECT_NE(out.find("geomean Vulkan vs OpenCL"), std::string::npos);
    EXPECT_NE(out.find("bench1"), std::string::npos);
    EXPECT_NE(out.find("driver failure"), std::string::npos);
    EXPECT_NE(out.find("3.00"), std::string::npos);
}

TEST(ScaleConfig, ShrinksTowardFloorNeverInflates)
{
    suite::SizeConfig size{"s", {4096, 16, 64}};
    suite::SizeConfig scaled = scaleConfig(size, 64);
    EXPECT_EQ(scaled.params[0], 64u); // 4096 / 64
    EXPECT_EQ(scaled.params[1], 16u); // small param passes through
    EXPECT_EQ(scaled.params[2], 32u); // floored at min(p, 32)
    suite::SizeConfig same = scaleConfig(size, 1);
    EXPECT_EQ(same.params, size.params);
}

TEST(ReportBook, DeviceSlugIsFilesystemSafe)
{
    EXPECT_EQ(deviceSlug("NVIDIA GTX1050Ti"), "nvidia-gtx1050ti");
    EXPECT_EQ(deviceSlug("Imagination PowerVR Rogue G6430"),
              "imagination-powervr-rogue-g6430");
    EXPECT_EQ(deviceSlug("   "), "device");
}

TEST(ReportBook, Tab1ListsEveryRegistryBenchmark)
{
    std::string tab1 = renderTab1Section();
    for (const suite::Benchmark *b : suite::registry())
        EXPECT_NE(tab1.find(b->name()), std::string::npos)
            << b->name();
    EXPECT_NE(tab1.find("re-record"), std::string::npos);
}

TEST(ReportBook, Tab23ListsDevicesWithDashForMissingApis)
{
    std::string tabs =
        renderTab23Section(sim::activeDeviceRegistry());
    EXPECT_NE(tabs.find("TABLE II"), std::string::npos);
    EXPECT_NE(tabs.find("TABLE III"), std::string::npos);
    EXPECT_NE(tabs.find("NVIDIA GTX1050Ti"), std::string::npos);
    EXPECT_NE(tabs.find("CUDA 8.0"), std::string::npos);
    // AMD/mobile rows carry "-" in the CUDA column.
    EXPECT_NE(tabs.find("-"), std::string::npos);
}

/** The dry panel, built as the book builds it: planned, then one
 *  column per available API. */
BandwidthPanel
dryBandwidthPanel(const sim::DeviceSpec &dev)
{
    suite::BandwidthConfig cfg;
    BandwidthPanel panel = planBandwidthPanel(dev, /*dry=*/true, cfg);
    for (int a = 0; a < sim::apiCount; ++a)
        if (panel.apiRun[a])
            runBandwidthPanelApi(panel, static_cast<sim::Api>(a), dev,
                                 cfg);
    return panel;
}

TEST(ReportBook, BandwidthSectionIsDeterministic)
{
    BandwidthPanel p1 = dryBandwidthPanel(sim::gtx1050ti());
    BandwidthPanel p2 = dryBandwidthPanel(sim::gtx1050ti());
    std::string s1 = renderBandwidthSection({p1}, false, true);
    std::string s2 = renderBandwidthSection({p2}, false, true);
    // Simulated clocks only: a rerun renders byte-identically, which
    // is what lets CI regenerate docs/RESULTS.md and diff it.
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1.find("Fig. 1: NVIDIA GTX1050Ti"), std::string::npos);
    EXPECT_NE(s1.find("unit stride:"), std::string::npos);
}

TEST(ReportBook, SpeedupSectionAnnotatesWholesaleMobileSkips)
{
    // Wholesale skips are per-device now (a UVM part pages and runs
    // what a hard-cap part cannot): planning a hard-cap mobile figure
    // records cfd's skip, and the renderer prints it with the device
    // name and the paper's reason.
    std::vector<FigureCell> cells;
    FigureData fig =
        planSpeedupFigure(sim::adreno506(), true, 1, cells);
    ASSERT_EQ(fig.wholesaleSkips.size(), 1u);
    EXPECT_EQ(fig.wholesaleSkips[0].first, "cfd");
    std::string section = renderSpeedupSection({fig}, true, 16);
    EXPECT_NE(
        section.find("skipped wholesale on Qualcomm Adreno 506: cfd"),
        std::string::npos);
    EXPECT_NE(section.find("paper anchors"), std::string::npos);

    // A UVM part records no wholesale skip: cfd pages instead.
    sim::DeviceSpec uvm = sim::adreno506();
    uvm.name = "UVM Adreno";
    uvm.uvmOversubscription = 64.0;
    std::vector<FigureCell> uvm_cells;
    FigureData uvm_fig = planSpeedupFigure(uvm, true, 1, uvm_cells);
    EXPECT_TRUE(uvm_fig.wholesaleSkips.empty());
    EXPECT_GT(uvm_cells.size(), cells.size());
}

} // namespace
} // namespace vcb::harness
