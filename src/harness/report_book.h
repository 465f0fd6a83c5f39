/**
 * @file
 * The report-book layer: one code path that runs every registered
 * benchmark x API x admissible Vulkan submission strategy across a
 * device registry and renders every paper artifact from the result —
 * the Figs. 1–4 sections, Tables I–III, per-device CSVs, the
 * suite-wide JSON snapshot and the generated Markdown results book
 * (docs/RESULTS.md).  `tools/vcb_report` is the one driver (see its
 * --help for the artifact tree layout).
 *
 * Every number below comes from simulated clocks, so a report built
 * twice from the same tree is byte-identical — which is what lets CI
 * regenerate docs/RESULTS.md and fail on drift.
 */

#ifndef VCB_HARNESS_REPORT_BOOK_H
#define VCB_HARNESS_REPORT_BOOK_H

#include <string>
#include <vector>

#include "harness/figures.h"
#include "sim/device.h"
#include "suite/bandwidth.h"
#include "suite/workload.h"

namespace vcb::harness {

/** Figure speedup scale divisors (the dry book's shrink): desktop 64,
 *  mobile 16, 1 when not dry. */
uint64_t speedupScale(bool mobile, bool dry);

// ---------------------------------------------------------------------------
// Bandwidth figures (Figs. 1 and 3)
// ---------------------------------------------------------------------------

/** One device's strided-bandwidth sweep under every available API. */
struct BandwidthPanel
{
    std::string device;
    double peakBwGBs = 0;
    std::vector<uint32_t> strides;
    bool apiRun[sim::apiCount] = {false, false, false};
    std::vector<suite::BandwidthPoint> points[sim::apiCount];
};

/** Enumerate the device's sweep without running anything: desktop
 *  strides/sizes for desktop parts, mobile strides/sizes for mobile
 *  parts, shrunk when `dry`; apiRun[] marked, `cfg` filled.  One
 *  runBandwidthPanelApi call per marked API — in any order, each
 *  writes a disjoint points[] slot — completes the panel (the
 *  sweep-executor split, see sweep.h). */
BandwidthPanel planBandwidthPanel(const sim::DeviceSpec &dev, bool dry,
                                  suite::BandwidthConfig &cfg);

/** Execute one API column of a planned panel against `dev` (the
 *  EXECUTING thread's registry copy). */
void runBandwidthPanelApi(BandwidthPanel &panel, sim::Api api,
                          const sim::DeviceSpec &dev,
                          const suite::BandwidthConfig &cfg);

/** Render the Fig. 1 (desktop) or Fig. 3 (mobile) section: one panel
 *  per device with per-stride GB/s columns and the unit-stride
 *  percent-of-peak summary the paper anchors on. */
std::string
renderBandwidthSection(const std::vector<BandwidthPanel> &panels,
                       bool mobile, bool dry);

// ---------------------------------------------------------------------------
// Oversubscribed-bandwidth sweep (UVM parts)
// ---------------------------------------------------------------------------

/** One UVM device's oversubscription sweep under every available API:
 *  unit-stride bandwidth over working sets from 0.5x to 2x the
 *  device-local heap, with the paging traffic each point paid. */
struct OversubPanel
{
    std::string device;
    uint64_t heapBytes = 0;
    double derate = 1.0; ///< uvm_oversub_bw_derate, for the header
    std::vector<double> factors;
    bool apiRun[sim::apiCount] = {false, false, false};
    std::vector<suite::OversubPoint> points[sim::apiCount];
};

/** Enumerate the panel without running anything.  Empty factors (and
 *  all-false apiRun[]) on devices without uvmPagingEnabled() — the
 *  sweep only exists for UVM parts.  One runOversubPanelApi call per
 *  marked API, any order, reproduces the serial sweep exactly (the
 *  sweep-executor split, see sweep.h). */
OversubPanel planOversubPanel(const sim::DeviceSpec &dev, bool dry,
                              suite::OversubConfig &cfg);

/** Execute one API column of a planned panel against `dev` (the
 *  EXECUTING thread's registry copy). */
void runOversubPanelApi(OversubPanel &panel, sim::Api api,
                        const sim::DeviceSpec &dev,
                        const suite::OversubConfig &cfg);

/** Render the oversubscription section: one table per UVM device with
 *  per-factor working set, per-API GB/s and paging-traffic columns. */
std::string
renderOversubSection(const std::vector<OversubPanel> &panels, bool dry);

// ---------------------------------------------------------------------------
// Speedup figures (Figs. 2 and 4)
// ---------------------------------------------------------------------------

/** Render the Fig. 2 (desktop) or Fig. 4 (mobile) section from
 *  already-run figures: per-device speedup tables/bar charts, the
 *  wholesale mobile-skip annotations, validation warnings and the
 *  paper's geomean anchors. */
std::string
renderSpeedupSection(const std::vector<FigureData> &figures, bool mobile,
                     uint64_t scale);

// ---------------------------------------------------------------------------
// Tables I–III
// ---------------------------------------------------------------------------

/** Table I: benchmark metadata + admissible submission strategies. */
std::string renderTab1Section();

/** Tables II and III from the given registry (desktop then mobile). */
std::string
renderTab23Section(const std::vector<sim::DeviceSpec> &devices);

// ---------------------------------------------------------------------------
// Suite sweep (CSV / JSON / strategy section)
// ---------------------------------------------------------------------------

/** One benchmark execution within the report sweep. */
struct SweepRun
{
    std::string bench;
    std::string size;
    sim::Api api = sim::Api::Vulkan;
    suite::SubmitStrategy strategy = suite::SubmitStrategy::ReRecord;
    /** This strategy is the workload's preferred one (Table I's *). */
    bool preferred = false;
    suite::RunResult result;
};

/** One cell of the multi-queue overlap sweep. */
struct OverlapRun
{
    std::string bench;
    std::string size;
    uint32_t queues = 1; ///< requested queue count (result.queuesUsed
                         ///< is the device-clamped effective count)
    suite::RunResult result;
};

/** Everything the book reports about one device. */
struct DeviceReport
{
    /** Into the caller's (active-registry) device vector. */
    const sim::DeviceSpec *dev = nullptr;
    /** Bandwidth sweep (Fig. 1/3 panel). */
    BandwidthPanel bandwidth;
    /** Benchmarks x sizes x APIs at the preferred strategy
     *  (Fig. 2/4 figure; desktop sizes for desktop parts). */
    FigureData figure;
    /** Vulkan submission-strategy sweep at the smallest size: one run
     *  per benchmark x applicable strategy. */
    std::vector<SweepRun> strategySweep;
    /** Multi-queue overlap sweep: each dag benchmark at its largest
     *  paper size (never dry-shrunk — overlap needs per-chunk kernel
     *  time to dominate submission overhead) over 1/2/4 compute
     *  queues. */
    std::vector<OverlapRun> overlapSweep;
    /** Oversubscribed-bandwidth sweep (empty factors on non-UVM
     *  parts — the sweep only exists where paging does). */
    OversubPanel oversub;
};

/** The whole report: one DeviceReport per registry device. */
struct ReportBook
{
    std::vector<DeviceReport> devices;
    bool dry = false;

    /**
     * Sweep-executor ledger for the build (sweep.h): wall time only —
     * every number in the book itself comes from simulated clocks, so
     * these fields never appear in the rendered Markdown/CSV output
     * and the book stays byte-identical at any job count.
     */
    unsigned jobs = 1;          ///< Worker sessions used.
    size_t cells = 0;           ///< Plan length.
    double sweepWallMs = 0;     ///< Whole-plan wall time.
    double sweepDispatchMs = 0; ///< Sum of per-cell dispatch wall time.
    double sweepCellWallMs = 0; ///< Sum of per-cell wall time.
    /** The longest cell and its wall time.  It and sweepCellWallMs /
     *  jobs are the two lower bounds on sweepWallMs. */
    std::string slowestCell;
    double slowestCellMs = 0;

    /** Every executed run validated against its CPU reference. */
    bool allValidated() const;
};

/**
 * Run the full report across `devices` (dry = shrunken sizes) on the
 * sweep executor: the run is enumerated as independent cells and
 * executed on `jobs` isolated engine sessions (0 = hardware
 * concurrency — see sweep.h).  Output is byte-identical
 * at any job count; jobs only moves wall time.
 */
ReportBook buildReportBook(const std::vector<sim::DeviceSpec> &devices,
                           bool dry, unsigned jobs = 0);

/** The Vulkan submission-strategy sweep section of the book. */
std::string renderStrategySection(const ReportBook &book);

/** The multi-queue overlap-curve section of the book. */
std::string renderOverlapSection(const ReportBook &book);

/** Render the whole Markdown results book (docs/RESULTS.md). */
std::string renderResultsBook(const ReportBook &book);

/** Per-device CSV: every figure run and strategy-sweep run. */
std::string deviceCsv(const DeviceReport &report);

/** Filesystem-safe slug for a device's artifact files. */
std::string deviceSlug(const std::string &device_name);

/**
 * The suite-wide JSON snapshot (one object per line — a superset of
 * `vcb_perf --suite` across every device and API): each registry
 * benchmark at its smallest (quick) or largest (full) paper size under
 * every available API at the preferred strategy, then one summary line
 * per device and one suite trailer.  Wall-clock fields are left out on
 * purpose: every value is simulated, so the snapshot is deterministic
 * and diffable (BENCH_report.json).  Runs the benchmarks itself — the
 * standalone `--suite-json` trajectory path.
 *
 * `all_validated`, when non-null, receives the sweep's verdict.
 *
 * Runs on the sweep executor (`jobs` as in buildReportBook); the
 * deterministic lines are byte-identical at any job count.  One
 * trailing ledger line (`"bench": "sweep"` — jobs, cells,
 * sweep_wall_ms, sweep_dispatch_wall_ms, the slowest cell's time and
 * its device/benchmark name) records the executor's
 * wall-clock trajectory; it is the single wall-clock-derived line in
 * BENCH_report.json, so diff-based consumers filter it
 * (grep -v '"bench": "sweep"' — see .github/workflows/ci.yml and
 * tools/gen_bench_report.sh).
 */
std::string suiteJsonLines(const std::vector<sim::DeviceSpec> &devices,
                           bool quick, bool *all_validated = nullptr,
                           unsigned jobs = 0);

/**
 * The same JSON-lines format rendered from an already-built book (no
 * benchmark re-execution): one line per figure row x available API at
 * the book's scale, skip lines for driver failures and wholesale
 * mobile skips, per-device summaries and the suite trailer.  This is
 * what `vcb_report --out` writes alongside the book so the artifact
 * tree is internally consistent and costs one suite run.
 */
std::string suiteJsonFromBook(const ReportBook &book);

} // namespace vcb::harness

#endif // VCB_HARNESS_REPORT_BOOK_H
