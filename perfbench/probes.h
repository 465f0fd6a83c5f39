/**
 * @file
 * Layer probes: host-time accounting around the library's public entry
 * points, without touching the library.
 *
 * The benchmark links against the unmodified vcb library and asks the
 * linker to route every cross-module call of four functions through
 * the wrappers in probes.cc (GNU ld `--wrap`, see CMakeLists.txt):
 *
 *   harness::runSweepPlan   per-cell wall ledger, cell labels
 *   suite::runWorkload      runner wall, in-runner dispatch/compile,
 *   suite::runWorkloadVulkan  Workload::validate time, RunResult's
 *                           simulated fields
 *   sim::compileKernel      compile wall per calling thread
 *
 * With tracing off every wrapper is a straight pass-through, except
 * that runSweepPlan's own SweepStats (which the library computes
 * anyway) are kept so the end-to-end run can report per-cell latency.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.h"

namespace perfbench {

/** Turn the runner/compile probes on or off (set before any worker
 *  thread starts). */
void setTracing(bool on);

/** Monotonic probe totals, summed over every thread. */
struct ProbeTotals
{
    /** Per API (sim::Api order): runner calls, their wall time, and the
     *  dispatch / compile / validate time spent inside them. */
    uint64_t runs[3] = {};
    uint64_t runnerNs[3] = {};
    uint64_t runnerDispatchNs[3] = {};
    uint64_t runnerCompileNs[3] = {};
    uint64_t runnerValidateNs[3] = {};
    /** Every compileKernel call, inside a runner or not. */
    uint64_t compileNs = 0;
    /** Simulated fields of every RunResult the runners returned. */
    uint64_t launches = 0;
    uint64_t kernelRegionNs = 0;
    uint64_t deviceBusyNs = 0;
    uint64_t migratedBytes = 0;
    uint64_t faultNs = 0;

    uint64_t allRuns() const { return runs[0] + runs[1] + runs[2]; }
    uint64_t allRunnerNs() const
    {
        return runnerNs[0] + runnerNs[1] + runnerNs[2];
    }
    uint64_t allValidateNs() const
    {
        return runnerValidateNs[0] + runnerValidateNs[1] +
               runnerValidateNs[2];
    }
};

ProbeTotals probeTotals();

/** a - b, field by field. */
ProbeTotals operator-(const ProbeTotals &a, const ProbeTotals &b);

/** One executed sweep plan as the library reported it, plus (when
 *  tracing) which workload each cell ran and its runner wall. */
struct SweepLedger
{
    vcb::harness::SweepStats stats;
    /** "device/workload/api" of the cell's last runner call; empty for
     *  cells that ran no workload (bandwidth / oversubscription). */
    std::vector<std::string> label;
    std::vector<double> runnerMs;
};

/** The sweep plans run since the last call, in execution order. */
std::vector<SweepLedger> takeSweepLedgers();

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
