/** @file Unit tests for the common utilities. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include "common/mathutil.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/threadpool.h"

namespace vcb {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextFloatInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(MathUtil, AlignUp)
{
    EXPECT_EQ(alignUp(0, 16), 0u);
    EXPECT_EQ(alignUp(1, 16), 16u);
    EXPECT_EQ(alignUp(16, 16), 16u);
    EXPECT_EQ(alignUp(17, 16), 32u);
}

TEST(MathUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(256));
    EXPECT_FALSE(isPow2(255));
}

TEST(MathUtil, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(MathUtil, MeanStddevMedian)
{
    EXPECT_NEAR(mean({1, 2, 3}), 2.0, 1e-12);
    EXPECT_NEAR(stddev({2, 2, 2}), 0.0, 1e-12);
    EXPECT_NEAR(median({5, 1, 3}), 3.0, 1e-12);
    EXPECT_NEAR(median({4, 1, 3, 2}), 2.5, 1e-12);
}

TEST(StrUtil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(4ull << 20), "4.0 MiB");
}

TEST(StrUtil, FormatNs)
{
    EXPECT_EQ(formatNs(500), "500 ns");
    EXPECT_EQ(formatNs(1500), "1.50 us");
    EXPECT_EQ(formatNs(2.5e6), "2.500 ms");
}

TEST(StrUtil, ParseSize)
{
    EXPECT_EQ(parseSize("123"), 123u);
    EXPECT_EQ(parseSize("4k"), 4096u);
    EXPECT_EQ(parseSize("2M"), 2u << 20);
}

TEST(StrUtil, Padding)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](uint64_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndSmall)
{
    ThreadPool pool(2);
    int count = 0;
    pool.parallelFor(0, [&](uint64_t) { ++count; });
    EXPECT_EQ(count, 0);
    std::atomic<int> c2{0};
    pool.parallelFor(2, [&](uint64_t) { c2.fetch_add(1); });
    EXPECT_EQ(c2.load(), 2);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(100, [&](uint64_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, BackToBackRangesNeverLoseTheCompletionWakeup)
{
    // A completion notify that lands between the submitter's done
    // check and its sleep must not be lost.  Back-to-back ranges just
    // above kSerialGrain (so each one fans out) hit that window within
    // a few thousand calls when it is open; the watchdog turns the
    // resulting hang into a failure instead of a stuck test.
    ThreadPool pool(3);
    std::atomic<uint64_t> calls{0};
    std::atomic<bool> finished{false};
    std::thread watchdog([&] {
        uint64_t seen = 0;
        auto last_progress = std::chrono::steady_clock::now();
        while (!finished.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            const auto now = std::chrono::steady_clock::now();
            if (calls.load() != seen) {
                seen = calls.load();
                last_progress = now;
            } else if (now - last_progress > std::chrono::seconds(5)) {
                std::fprintf(stderr,
                             "ThreadPool stalled after %llu "
                             "parallelForRange calls\n",
                             (unsigned long long)seen);
                std::_Exit(1);
            }
        }
    });
    for (uint64_t c = 0; c < 100000; ++c) {
        const uint64_t count = ThreadPool::kSerialGrain + 1 + c % 64;
        std::atomic<uint64_t> covered{0};
        pool.parallelForRange(count, [&](uint64_t b, uint64_t e, unsigned) {
            covered.fetch_add(e - b);
        });
        EXPECT_EQ(covered.load(), count);
        calls.fetch_add(1);
    }
    finished = true;
    watchdog.join();
}

} // namespace
} // namespace vcb
