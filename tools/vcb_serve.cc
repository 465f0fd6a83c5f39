/**
 * @file
 * vcb_serve — long-lived benchmark-serving process.
 *
 * Reads newline-delimited flat-JSON requests on stdin (the protocol
 * is documented in src/serve/protocol.h), queues run requests on a
 * pool of engine sessions (one FIFO; the next idle session takes the
 * next request; each session has its own device registry), and
 * writes one response line per request to stdout in COMPLETION order
 * — the echoed id is the correlation key.  Malformed lines get an
 * "error" response and never crash the server.
 *
 *   vcb_serve [--sessions N] [--devices DIR] [--self-test]
 *
 *   --sessions N    engine-session pool size (default 4)
 *   --devices DIR   serve the spec-file registry from DIR instead of
 *                   the compiled-in paper devices
 *   --self-test     run the built-in protocol + bit-identity check
 *                   and exit (0 = pass)
 *
 * EOF on stdin drains every session and exits cleanly, so
 * `vcb_serve < requests.ndjson > results.ndjson` is a batch runner.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "common/strutil.h"
#include "serve/serve.h"
#include "sim/compile_cache.h"
#include "sim/device_file.h"

using namespace vcb;

namespace {

void
usage()
{
    std::printf("usage: vcb_serve [--sessions N] [--devices DIR] "
                "[--self-test]\n");
}

std::mutex out_mtx;

void
emit(const serve::Response &r)
{
    std::lock_guard<std::mutex> lk(out_mtx);
    std::printf("%s\n", serve::serializeResponse(r).c_str());
    std::fflush(stdout);
}

void
emitRaw(const std::string &line)
{
    std::lock_guard<std::mutex> lk(out_mtx);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

serve::Response
ack(const serve::Request &req, const char *cmd)
{
    serve::Response r;
    r.type = "ok";
    r.id = req.id;
    r.ok = true;
    r.cmd = cmd;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned sessions = 4;
    std::string devices_dir;
    bool self_test = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--sessions") {
            sessions = static_cast<unsigned>(
                parseCount("--sessions", next(), 1, 64));
        } else if (arg == "--devices") {
            devices_dir = next();
        } else if (arg == "--self-test") {
            self_test = true;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    if (self_test)
        return serve::runSelfTest() == 0 ? 0 : 1;

    serve::BrokerConfig cfg;
    cfg.sessions = sessions;
    if (!devices_dir.empty())
        cfg.devices = sim::loadDeviceDir(devices_dir);
    serve::ServeBroker broker(cfg);

    inform("vcb_serve: %u sessions, %s registry, compile cache %s",
           broker.sessionCount(),
           devices_dir.empty() ? "compiled-in" : devices_dir.c_str(),
           sim::CompileCache::globalEnabled() ? "on" : "off");

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        serve::Request req;
        std::string err;
        if (!serve::parseRequestLine(line, &req, &err)) {
            ++broker.metrics().rejected;
            serve::Response r;
            r.type = "error";
            // parseRequestLine reads the id before later checks fail;
            // echo it so the client can match the rejection.
            r.id = req.id;
            r.ok = false;
            r.error = err;
            emit(r);
            continue;
        }
        switch (req.kind) {
          case serve::Request::Kind::Run:
            broker.submit(req, emit);
            break;
          case serve::Request::Kind::Stats:
            emitRaw(broker.statsLine(req.id));
            break;
          case serve::Request::Kind::Drain:
            broker.drain();
            emit(ack(req, "drain"));
            break;
          case serve::Request::Kind::Cache:
            sim::CompileCache::setGlobalEnabled(req.cacheEnabled ? 1
                                                                 : 0);
            emit(ack(req, "cache"));
            break;
          case serve::Request::Kind::CacheClear:
            sim::CompileCache::global().clear();
            emit(ack(req, "cache_clear"));
            break;
          case serve::Request::Kind::Shutdown:
            broker.drain();
            emit(ack(req, "shutdown"));
            return 0;
        }
    }

    // EOF: graceful drain (the ~ServeBroker would drain too; doing it
    // here keeps every response ahead of process exit).
    broker.drain();
    return 0;
}
