/**
 * @file
 * The serve layer: a broker of long-lived benchmark execution sessions.
 *
 * A ServeBroker queues run requests on a harness::SessionPool
 * (harness/sweep.h), the worker-session pool the sweep executor runs
 * on: N worker threads fed from one FIFO, so an idle session takes
 * the next request at once.  Each worker runs under its OWN device
 * registry — a ScopedDeviceRegistry copy (sim/device.h) — so requests
 * on different sessions can never observe each other's devices, and
 * the runtime front-ends' raw DeviceSpec pointers (vkm resolves
 * physical devices by identity) always point into the executing
 * session's private storage.
 *
 * Execution itself is the ordinary golden path — build the
 * benchmark's declarative workload, hand it to the shared API runners,
 * validate against the CPU reference — so a served result is
 * bit-identical to what the same request produces serially in
 * vcb_run; executeRequest() is that path factored to be callable from
 * any thread, and hashHostArrays() turns the final host arrays into
 * the compact bit-identity handle the protocol carries.
 *
 * Repeated requests hit the content-addressed compile cache
 * (sim/compile_cache.h) under compileKernel, which is where the serve
 * layer's steady-state latency win comes from; vcb_load measures it
 * as a cache-on/off ablation.
 */

#ifndef VCB_SERVE_SERVE_H
#define VCB_SERVE_SERVE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "sim/device.h"
#include "suite/workload.h"

namespace vcb::serve {

/** FNV-1a over the final host arrays (lengths + contents): the
 *  bit-identity handle of one benchmark execution. */
uint64_t hashHostArrays(const suite::HostArrays &host);

/**
 * Execute one run request synchronously against the CALLING thread's
 * active device registry and return the filled response (ok=false
 * with a reason for unknown bench/device/api/strategy/size,
 * inapplicable strategies, and runner skips).  Never fatal: a serve
 * process must outlive any malformed request.
 */
Response executeRequest(const Request &req, unsigned session = 0);

/** Broker construction parameters. */
struct BrokerConfig
{
    /** Engine-session pool size. */
    unsigned sessions = 4;
    /** Device registry installed in every session; empty = the
     *  constructing thread's active registry (the compiled-in paper
     *  devices unless that thread installed an override). */
    std::vector<sim::DeviceSpec> devices;
};

/** N sessions on one request FIFO + shared metrics. */
class ServeBroker
{
  public:
    using ResponseFn = std::function<void(const Response &)>;

    explicit ServeBroker(BrokerConfig cfg = {});
    /** Drains every session (graceful shutdown). */
    ~ServeBroker();

    ServeBroker(const ServeBroker &) = delete;
    ServeBroker &operator=(const ServeBroker &) = delete;

    /** Queue a run request; the next idle session executes it and
     *  `done` fires on that session's thread.  Never blocks. */
    void submit(Request req, ResponseFn done);

    /** Convenience for synchronous clients (closed-loop load
     *  drivers, tests): submit and block for the response. */
    Response submitSync(const Request &req);

    /** Block until the queue is empty and every session is idle. */
    void drain();

    /** One flat-JSON stats line (the "stats" command's answer):
     *  counters, latency percentiles, throughput, compile-cache
     *  counters. */
    std::string statsLine(const std::string &id) const;

    ServeMetrics &metrics() { return metrics_; }
    unsigned sessionCount() const { return pool_.size(); }

  private:
    /** Declared before the pool: the pool drains on destruction, and
     *  its tasks record into the metrics. */
    ServeMetrics metrics_;
    harness::SessionPool pool_;
};

/**
 * Built-in end-to-end check (`vcb_serve --self-test`): protocol
 * accept/reject cases, then a small request mix executed serially and
 * through a multi-session broker, demanding bit-identical result
 * hashes and simulated times.  Returns the number of failures
 * (0 = pass); failures are described on stderr.
 */
int runSelfTest();

} // namespace vcb::serve

#endif // VCB_SERVE_SERVE_H
