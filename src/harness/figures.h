/**
 * @file
 * Figure orchestration: plans the whole suite on a device under every
 * available API as independent cells and aggregates the paper's
 * speedup metrics.  The report book (report_book.h) runs the cells
 * and renders Figs. 2 and 4 from the result.
 */

#ifndef VCB_HARNESS_FIGURES_H
#define VCB_HARNESS_FIGURES_H

#include <string>
#include <vector>

#include "sim/device.h"
#include "suite/benchmark.h"

namespace vcb::harness {

/** One benchmark x size entry of a speedup figure. */
struct SpeedupRow
{
    std::string bench;
    std::string sizeLabel;
    /** Kernel-region ns per API (index by static_cast<int>(Api)). */
    double ns[sim::apiCount] = {0, 0, 0};
    bool ok[sim::apiCount] = {false, false, false};
    std::string skip[sim::apiCount];
    bool validated[sim::apiCount] = {false, false, false};
    /** End-to-end ns and launch counts (report-book CSV columns). */
    double totalNs[sim::apiCount] = {0, 0, 0};
    uint64_t launches[sim::apiCount] = {0, 0, 0};
    /** Submission strategy each API's run used (RunResult::strategy):
     *  the Vulkan column reports which command-buffer strategy
     *  produced its number. */
    std::string strategy[sim::apiCount];
    /** UVM paging traffic of each API's run (0 off paging devices). */
    uint64_t migratedBytes[sim::apiCount] = {0, 0, 0};
    double faultNs[sim::apiCount] = {0, 0, 0};

    /** Speedup of `api` relative to the OpenCL baseline (the paper's
     *  convention); 0 when either side is missing. */
    double speedupVsOpenCl(sim::Api api) const;
};

/** A full figure: all benchmarks x sizes on one device. */
struct FigureData
{
    const sim::DeviceSpec *dev = nullptr;
    bool mobile = false;
    std::vector<SpeedupRow> rows;
    /** Benchmarks skipped wholesale on THIS device (bench name,
     *  mobileSkipReason(dev)) — per-device now that UVM parts run
     *  workloads the hard-cap parts cannot. */
    std::vector<std::pair<std::string, std::string>> wholesaleSkips;

    /** Geometric-mean speedup of `api` vs OpenCL over all rows where
     *  both ran (the paper's headline numbers). */
    double geomeanVsOpenCl(sim::Api api) const;
    /** Geometric-mean speedup of Vulkan vs CUDA (GTX1050Ti number). */
    double geomeanVulkanVsCuda() const;
    /** True when every executed run validated against the reference. */
    bool allValidated() const;
};

/** One runnable (row, API) unit of a speedup figure. */
struct FigureCell
{
    size_t row = 0;           ///< Index into FigureData::rows.
    sim::Api api = sim::Api::OpenCl;
    suite::SizeConfig cfg;    ///< Already scaled.
};

/**
 * Enumerate the figure without running anything: one row per suite
 * benchmark x desktop or mobile size (API-unavailable skips
 * prefilled), and one FigureCell per runnable (row, API) pair appended
 * to `cells`, its size shrunk by `scale` (1 = figure sizes).  Each
 * cell writes disjoint row slots, so feeding the cells to
 * runFigureCell in any order — including concurrently — gives the
 * same figure; the sweep executor (sweep.h) relies on this split.
 */
FigureData planSpeedupFigure(const sim::DeviceSpec &dev, bool mobile,
                             uint64_t scale,
                             std::vector<FigureCell> &cells);

/** Execute one planned cell against `dev` (pass the EXECUTING
 *  thread's registry copy, not the planning-time spec), writing the
 *  row's per-API slots. */
void runFigureCell(FigureData &fig, const FigureCell &cell,
                   const sim::DeviceSpec &dev);

/** Shrink a size configuration by `scale` toward a floor of 32
 *  (small parameters pass through unchanged) — the dry report book's
 *  scaling rule. */
suite::SizeConfig scaleConfig(const suite::SizeConfig &size,
                              uint64_t scale);

/** Render a figure as a table plus per-benchmark bar chart. */
std::string formatSpeedupFigure(const FigureData &fig);

} // namespace vcb::harness

#endif // VCB_HARNESS_FIGURES_H
