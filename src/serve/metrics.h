/**
 * @file
 * Serve-side latency and throughput accounting.
 *
 * Sessions record one wall-clock service-time sample per completed
 * request; the broker snapshots them for the stats command and
 * vcb_load derives its ablation numbers from the same recorder, so
 * tool and server always agree on what "p95" means: the q-th
 * percentile of the per-request service time (nearest-rank over all
 * samples since the last reset), not a decayed or bucketed estimate.
 * Request counts (accepted / completed / errors / rejected) are plain
 * atomics so the serve loop never takes the sample lock just to
 * count.
 */

#ifndef VCB_SERVE_METRICS_H
#define VCB_SERVE_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vcb::serve {

/** Thread-safe latency sample store with percentile snapshots. */
class LatencyRecorder
{
  public:
    void record(double ns);

    struct Snapshot
    {
        uint64_t count = 0;
        double minNs = 0;
        double maxNs = 0;
        double meanNs = 0;
        /** Nearest-rank percentiles. */
        double p50Ns = 0;
        double p95Ns = 0;
        double p99Ns = 0;
    };

    Snapshot snapshot() const;
    void reset();

  private:
    mutable std::mutex mtx;
    std::vector<double> samples;
    double sum = 0;
};

/** Broker-wide counters + latency, shared by all sessions. */
struct ServeMetrics
{
    LatencyRecorder latency;

    /** Run requests admitted to the broker queue. */
    std::atomic<uint64_t> accepted{0};
    /** Completed with ok=true. */
    std::atomic<uint64_t> completed{0};
    /** Completed with ok=false (unknown bench/device, skips...). */
    std::atomic<uint64_t> errors{0};
    /** Lines rejected before reaching a session (parse errors). */
    std::atomic<uint64_t> rejected{0};

    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();

    double elapsedSeconds() const;
    /** Completed ok-requests per second of broker lifetime. */
    double throughputRps() const;
};

} // namespace vcb::serve

#endif // VCB_SERVE_METRICS_H
