/**
 * @file
 * Sweep-executor tests: byte-identity of the report book at any job
 * count, plan-order merge under adversarial completion schedules,
 * per-worker device-registry isolation, and the session pool's shared
 * FIFO.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/report_book.h"
#include "harness/sweep.h"
#include "sim/device.h"
#include "sim/device_file.h"
#include "sim/engine.h"

namespace vcb::harness {
namespace {

// --- resolveSweepJobs -------------------------------------------------------

TEST(ResolveSweepJobs, ExplicitRequestWins)
{
    EXPECT_EQ(resolveSweepJobs(3), 3u);
}

TEST(ResolveSweepJobs, ZeroMeansHardwareConcurrency)
{
    EXPECT_GE(resolveSweepJobs(0), 1u);
}

// --- session pool -----------------------------------------------------------

/** An idle worker takes the next queued task at once.  Task 0 blocks
 *  one worker until task 2 runs, so task 2 must run on the other
 *  worker once it finishes task 1; a pool that bound task 2 to task
 *  0's worker fails the wait instead of hanging. */
TEST(SessionPool, IdleWorkerTakesNextTask)
{
    std::mutex mtx;
    std::condition_variable cv;
    bool released = false;
    bool task0_released = false;
    unsigned worker0 = 0, worker2 = 0;
    {
        SessionPool pool(2, {});
        EXPECT_EQ(pool.size(), 2u);
        pool.submit([&](unsigned worker) {
            std::unique_lock<std::mutex> lk(mtx);
            worker0 = worker;
            task0_released = cv.wait_for(lk, std::chrono::seconds(20),
                                         [&] { return released; });
        });
        pool.submit([](unsigned) {});
        pool.submit([&](unsigned worker) {
            std::lock_guard<std::mutex> lk(mtx);
            worker2 = worker;
            released = true;
            cv.notify_all();
        });
        pool.drain();
    }
    EXPECT_TRUE(task0_released);
    EXPECT_NE(worker0, worker2);
}

// --- plan-order merge -------------------------------------------------------

/** Cells complete in deliberately inverted order (early cells sleep
 *  longest); slot writes must still land at plan positions and the
 *  ledger must cover every cell exactly once. */
TEST(SweepPlan, MergesInPlanOrderUnderShuffledCompletion)
{
    constexpr size_t kCells = 24;
    std::vector<size_t> slots(kCells, ~size_t{0});
    std::atomic<size_t> completions{0};
    std::vector<size_t> completion_order(kCells, 0);

    SweepOptions opts;
    opts.jobs = 4;
    SweepStats stats = runSweepPlan(
        kCells,
        [&](size_t cell) {
            // Early plan entries finish last.
            std::this_thread::sleep_for(
                std::chrono::microseconds((kCells - cell) * 200));
            slots[cell] = cell;
            completion_order[completions.fetch_add(1)] = cell;
        },
        opts);

    EXPECT_EQ(stats.jobs, 4u);
    EXPECT_EQ(stats.cells, kCells);
    ASSERT_EQ(stats.cellWallMs.size(), kCells);
    ASSERT_EQ(stats.cellDispatchMs.size(), kCells);
    ASSERT_EQ(stats.cellWorker.size(), kCells);
    for (size_t i = 0; i < kCells; ++i) {
        // The merge is positional: cell i's result sits at slot i no
        // matter when (or on which worker) it completed.
        EXPECT_EQ(slots[i], i);
        EXPECT_LT(stats.cellWorker[i], 4u);
        EXPECT_GE(stats.cellWallMs[i], 0.0);
    }
    EXPECT_EQ(completions.load(), kCells);
}

/** jobs=1 must also run on a spawned worker (not the caller), so the
 *  execution environment is identical at every job count. */
TEST(SweepPlan, SingleJobRunsOffCallerThread)
{
    std::thread::id caller = std::this_thread::get_id();
    std::thread::id cell_thread;
    SweepOptions opts;
    opts.jobs = 1;
    SweepStats stats = runSweepPlan(
        1, [&](size_t) { cell_thread = std::this_thread::get_id(); },
        opts);
    EXPECT_EQ(stats.jobs, 1u);
    EXPECT_NE(cell_thread, caller);
}

/** One worker takes cells in the order they were queued.  The report
 *  book queues its heavy cells first and relies on this first-in,
 *  first-out order to start them first. */
TEST(SweepPlan, SingleJobRunsCellsInPlanOrder)
{
    constexpr size_t kCells = 32;
    std::vector<size_t> order;
    SweepOptions opts;
    opts.jobs = 1;
    runSweepPlan(kCells, [&](size_t cell) { order.push_back(cell); },
                 opts);
    ASSERT_EQ(order.size(), kCells);
    for (size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(order[i], i);
}

// --- per-worker registry isolation -----------------------------------------

TEST(SweepPlan, WorkersGetPrivateRegistrySessions)
{
    // A registry the caller does not have: cells must see it (the
    // sweep installs the snapshot per worker), and each worker must
    // own a private copy (distinct object identity per worker).
    std::vector<sim::DeviceSpec> custom = {sim::gtx1050ti()};
    custom[0].name = "sweep-isolation-probe";

    const std::vector<sim::DeviceSpec> &caller_reg =
        sim::activeDeviceRegistry();
    const sim::DeviceSpec *caller_first =
        caller_reg.empty() ? nullptr : &caller_reg[0];

    constexpr size_t kCells = 16;
    std::mutex mtx;
    std::vector<const void *> seen;
    bool all_named = true;

    SweepOptions opts;
    opts.jobs = 4;
    opts.devices = custom;
    SweepStats stats = runSweepPlan(
        kCells,
        [&](size_t) {
            const std::vector<sim::DeviceSpec> &reg =
                sim::activeDeviceRegistry();
            std::lock_guard<std::mutex> lk(mtx);
            if (reg.size() != 1 ||
                reg[0].name != "sweep-isolation-probe")
                all_named = false;
            seen.push_back(&reg[0]);
        },
        opts);

    EXPECT_TRUE(all_named);
    // No cell saw the caller's registry, and no two workers shared a
    // registry object.
    std::set<const void *> addrs;
    for (const void *addr : seen) {
        addrs.insert(addr);
        EXPECT_NE(addr, static_cast<const void *>(caller_first));
    }
    std::set<unsigned> workers(stats.cellWorker.begin(),
                               stats.cellWorker.end());
    // Every distinct worker that ran cells saw a distinct private
    // copy: one registry address per participating worker.
    EXPECT_EQ(addrs.size(), workers.size());

    // The caller's registry is untouched after the sweep.
    EXPECT_EQ(&sim::activeDeviceRegistry(), &caller_reg);
}

// --- report-book byte identity ---------------------------------------------

/** The sweep executor's acceptance property: the full quick book on
 *  the committed spec directory — Markdown render, every per-device
 *  CSV and the deterministic suite-JSON lines — is byte-identical at
 *  jobs=1 and jobs=4.  The six parts include the UVM expansion
 *  devices (Adreno 640, Mali-G76), whose figures run paged workloads.
 *  CI's tsan job runs this test under ThreadSanitizer, so a data race
 *  in the sweep fails it there; the sanitize job runs it under
 *  ASan/UBSan (smoke label).  Each book's ledger must also name its
 *  slowest cell. */
TEST(SweepBook, QuickBookByteIdenticalAcrossJobCounts)
{
    const char *dir = std::getenv("VCB_DEVICES_DIR");
    if (!dir)
        GTEST_SKIP() << "VCB_DEVICES_DIR not set";
    sim::ScopedDeviceRegistry reg(sim::loadDeviceDir(dir));
    const std::vector<sim::DeviceSpec> &devices = reg.devices();
    std::set<std::string> names;
    for (const sim::DeviceSpec &dev : devices)
        names.insert(dev.name);
    EXPECT_EQ(names, (std::set<std::string>{
                         "NVIDIA GTX1050Ti", "AMD RX560",
                         "Qualcomm Adreno 506",
                         "Imagination PowerVR Rogue G6430",
                         "Qualcomm Adreno 640", "Arm Mali-G76"}));

    ReportBook book1 = buildReportBook(devices, /*dry=*/true, 1);
    ReportBook book4 = buildReportBook(devices, /*dry=*/true, 4);
    EXPECT_EQ(book1.jobs, 1u);
    EXPECT_EQ(book4.jobs, 4u);
    EXPECT_EQ(book1.cells, book4.cells);
    EXPECT_GT(book1.cells, 0u);
    for (const ReportBook *book : {&book1, &book4}) {
        EXPECT_GT(book->slowestCellMs, 0.0);
        EXPECT_LE(book->slowestCellMs, book->sweepWallMs);
        bool named = false;
        for (const std::string &name : names)
            named = named || book->slowestCell.rfind(name, 0) == 0;
        EXPECT_TRUE(named) << "slowest cell: " << book->slowestCell;
    }

    EXPECT_EQ(renderResultsBook(book1), renderResultsBook(book4));
    ASSERT_EQ(book1.devices.size(), book4.devices.size());
    for (size_t i = 0; i < book1.devices.size(); ++i)
        EXPECT_EQ(deviceCsv(book1.devices[i]),
                  deviceCsv(book4.devices[i]));
    EXPECT_EQ(suiteJsonFromBook(book1), suiteJsonFromBook(book4));
}

} // namespace
} // namespace vcb::harness
