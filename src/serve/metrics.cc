#include "serve/metrics.h"

#include <algorithm>

namespace vcb::serve {

void
LatencyRecorder::record(double ns)
{
    std::lock_guard<std::mutex> lk(mtx);
    samples.push_back(ns);
    sum += ns;
}

LatencyRecorder::Snapshot
LatencyRecorder::snapshot() const
{
    std::vector<double> sorted;
    double total = 0;
    {
        std::lock_guard<std::mutex> lk(mtx);
        sorted = samples;
        total = sum;
    }
    Snapshot s;
    s.count = sorted.size();
    if (sorted.empty())
        return s;
    std::sort(sorted.begin(), sorted.end());
    s.minNs = sorted.front();
    s.maxNs = sorted.back();
    s.meanNs = total / (double)sorted.size();
    auto rank = [&](size_t pct) {
        // Nearest-rank: the smallest sample with at least pct% of the
        // samples at or below it, sorted[ceil(pct * n / 100) - 1]
        // (integer ceiling, so no float rounding moves the rank).
        size_t n = sorted.size();
        size_t r = (pct * n + 99) / 100;
        return sorted[std::clamp<size_t>(r, 1, n) - 1];
    };
    s.p50Ns = rank(50);
    s.p95Ns = rank(95);
    s.p99Ns = rank(99);
    return s;
}

void
LatencyRecorder::reset()
{
    std::lock_guard<std::mutex> lk(mtx);
    samples.clear();
    sum = 0;
}

double
ServeMetrics::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
ServeMetrics::throughputRps() const
{
    double secs = elapsedSeconds();
    return secs > 0 ? (double)completed.load() / secs : 0.0;
}

} // namespace vcb::serve
