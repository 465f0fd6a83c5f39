#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/logging.h"

namespace vcb {

namespace {

/** Run one work item; any escaping exception is a simulator bug.
 *  Without this, a throw on the calling thread would propagate (and on
 *  a worker thread std::terminate) — panic keeps the documented
 *  contract on both paths. */
void
runItem(const std::function<void(uint64_t)> &fn, uint64_t i)
{
    try {
        fn(i);
    } catch (const std::exception &e) {
        panic("exception escaped a ThreadPool work item: %s", e.what());
    } catch (...) {
        panic("unknown exception escaped a ThreadPool work item");
    }
}

/** Same contract for whole-range work items. */
void
runRange(const std::function<void(uint64_t, uint64_t, unsigned)> &fn,
         uint64_t begin, uint64_t end, unsigned worker)
{
    try {
        fn(begin, end, worker);
    } catch (const std::exception &e) {
        panic("exception escaped a ThreadPool work range: %s", e.what());
    } catch (...) {
        panic("unknown exception escaped a ThreadPool work range");
    }
}

/** Depth of nested ScopedSerial scopes on this thread. */
thread_local int t_serialScopeDepth = 0;

} // namespace

ThreadPool::ScopedSerial::ScopedSerial() { ++t_serialScopeDepth; }

ThreadPool::ScopedSerial::~ScopedSerial() { --t_serialScopeDepth; }

bool
ThreadPool::serialScopeActive()
{
    return t_serialScopeDepth > 0;
}

ThreadPool::ThreadPool(int workers)
{
    unsigned n;
    if (workers < 0) {
        unsigned hw = std::thread::hardware_concurrency();
        n = hw > 1 ? hw - 1 : 1;
    } else {
        n = static_cast<unsigned>(workers);
    }
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        stopping = true;
    }
    cv.notify_all();
    for (auto &t : threads)
        t.join();
}

int
ThreadPool::globalWorkers()
{
    const char *env = std::getenv("VCB_THREADS");
    if (env && *env) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1 && v <= 4096)
            return static_cast<int>(v) - 1;
        warn("ignoring invalid VCB_THREADS='%s' (want 1..4096)", env);
    }
    return -1;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(globalWorkers());
    return pool;
}

void
ThreadPool::runJob(Job &job, unsigned worker)
{
    for (;;) {
        uint64_t begin = job.next.fetch_add(job.chunk);
        if (begin >= job.count)
            break;
        uint64_t end = std::min(begin + job.chunk, job.count);
        if (job.rangeFn) {
            runRange(*job.rangeFn, begin, end, worker);
        } else {
            for (uint64_t i = begin; i < end; ++i)
                runItem(*job.fn, i);
        }
        job.done.fetch_add(end - begin);
    }
}

void
ThreadPool::workerLoop(unsigned worker)
{
    uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lk(mtx);
            cv.wait(lk, [&] {
                return stopping || (current && generation != seen);
            });
            if (stopping)
                return;
            seen = generation;
            job = current;
        }
        runJob(*job, worker);
        // The submitter checks `done` under mtx and then sleeps.
        // Passing through mtx orders this notify after that sleep has
        // begun (or before the check), so the wakeup cannot be lost.
        { std::lock_guard<std::mutex> lk(mtx); }
        cvDone.notify_all();
    }
}

void
ThreadPool::submitAndRun(const std::shared_ptr<Job> &job)
{
    // Aim for several chunks per worker to balance irregular work.
    uint64_t parts = (threads.size() + 1) * 8;
    job->chunk = std::max<uint64_t>(1, job->count / parts);

    {
        std::lock_guard<std::mutex> lk(mtx);
        current = job;
        ++generation;
    }
    cv.notify_all();

    runJob(*job, 0);

    // Wait for stragglers still inside their chunks.  The caller runs
    // chunks itself, so `done` always reaches `count` even when a
    // concurrent submission steals the workers away.
    if (job->done.load() != job->count) {
        std::unique_lock<std::mutex> lk(mtx);
        cvDone.wait(lk, [&] { return job->done.load() == job->count; });
    }
    {
        std::lock_guard<std::mutex> lk(mtx);
        // Only detach our own job: a concurrent submitter may already
        // have installed the next one.
        if (current == job)
            current.reset();
    }
}

void
ThreadPool::parallelFor(uint64_t count,
                        const std::function<void(uint64_t)> &fn)
{
    if (count == 0)
        return;
    // Small counts: run inline, skip synchronization entirely.
    if (count <= 2 || threads.empty() || serialScopeActive()) {
        for (uint64_t i = 0; i < count; ++i)
            runItem(fn, i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->count = count;
    submitAndRun(job);
}

void
ThreadPool::parallelForRange(
    uint64_t count,
    const std::function<void(uint64_t, uint64_t, unsigned)> &fn)
{
    if (count == 0)
        return;
    // Below kSerialGrain the submit/wake/join handshake costs more
    // than the fan-out recovers (measured — see header comment), so
    // run the whole range inline on the caller.
    if (count <= kSerialGrain || threads.empty() || serialScopeActive()) {
        runRange(fn, 0, count, 0);
        return;
    }

    auto job = std::make_shared<Job>();
    job->rangeFn = &fn;
    job->count = count;
    submitAndRun(job);
}

} // namespace vcb
