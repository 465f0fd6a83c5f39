#include "suite/workload.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

#include "common/logging.h"
#include "cuda/cuda_rt.h"
#include "ocl/ocl.h"
#include "suite/vkhelp.h"

namespace vcb::suite {

const char *
strategyName(SubmitStrategy s)
{
    switch (s) {
      case SubmitStrategy::RecordOnce:
        return "record-once";
      case SubmitStrategy::ReRecord:
        return "re-record";
      case SubmitStrategy::Batched:
        return "batched";
    }
    return "?";
}

PushWord
pw(uint32_t v)
{
    PushWord p;
    p.value = v;
    return p;
}

PushWord
pwF(float v)
{
    return pw(std::bit_cast<uint32_t>(v));
}

PushWord
pwHost(size_t array, size_t word)
{
    PushWord p;
    p.hostArray = array;
    p.hostWord = word;
    return p;
}

WorkloadStep
dispatchStep(size_t kernel, uint32_t gx, uint32_t gy, uint32_t gz,
             std::vector<PushWord> push,
             std::vector<std::pair<uint32_t, size_t>> bindings)
{
    WorkloadStep s;
    s.kind = WorkloadStep::Kind::Dispatch;
    s.kernel = kernel;
    s.groups[0] = gx;
    s.groups[1] = gy;
    s.groups[2] = gz;
    s.push = std::move(push);
    s.bindings = std::move(bindings);
    return s;
}

WorkloadStep
barrierStep()
{
    WorkloadStep s;
    s.kind = WorkloadStep::Kind::Barrier;
    return s;
}

WorkloadStep
syncStep()
{
    WorkloadStep s;
    s.kind = WorkloadStep::Kind::Sync;
    return s;
}

WorkloadStep
uploadStep(size_t buffer, size_t host_array)
{
    WorkloadStep s;
    s.kind = WorkloadStep::Kind::Upload;
    s.buffer = buffer;
    s.hostArray = host_array;
    return s;
}

WorkloadStep
uploadIfStep(size_t buffer, size_t host_array, size_t cond_array,
             size_t cond_word)
{
    WorkloadStep s = uploadStep(buffer, host_array);
    s.condArray = cond_array;
    s.condWord = cond_word;
    return s;
}

WorkloadStep
readbackStep(size_t buffer, size_t host_array)
{
    WorkloadStep s;
    s.kind = WorkloadStep::Kind::Readback;
    s.buffer = buffer;
    s.hostArray = host_array;
    return s;
}

WorkloadStep
hostStep(std::function<void(HostArrays &)> fn)
{
    WorkloadStep s;
    s.kind = WorkloadStep::Kind::HostCall;
    s.fn = std::move(fn);
    return s;
}

WorkloadStep
withDeps(WorkloadStep s, std::vector<size_t> deps)
{
    s.deps = std::move(deps);
    return s;
}

namespace {

using Kind = WorkloadStep::Kind;

bool
isDeviceStep(const WorkloadStep &s)
{
    return s.kind == Kind::Dispatch || s.kind == Kind::Barrier;
}

uint32_t
resolvePush(const PushWord &p, const HostArrays &host)
{
    if (p.immediate())
        return p.value;
    VCB_ASSERT(p.hostArray < host.size() &&
                   p.hostWord < host[p.hostArray].size(),
               "push word references host[%zu][%zu] out of range",
               p.hostArray, p.hostWord);
    return host[p.hostArray][p.hostWord];
}

bool
uploadEnabled(const WorkloadStep &s, const HostArrays &host)
{
    if (s.condArray == SIZE_MAX)
        return true;
    return host[s.condArray][s.condWord] != 0;
}

const std::vector<WorkloadStep> &
bodyOf(const Workload &w, uint32_t it,
       std::vector<WorkloadStep> &scratch)
{
    if (!w.bodyFor)
        return w.body;
    scratch = w.bodyFor(it);
    return scratch;
}

bool
pushesImmediate(const std::vector<WorkloadStep> &steps)
{
    for (const auto &s : steps)
        if (s.kind == Kind::Dispatch)
            for (const auto &p : s.push)
                if (!p.immediate())
                    return false;
    return true;
}

bool
pureDevice(const std::vector<WorkloadStep> &steps)
{
    for (const auto &s : steps)
        if (!isDeviceStep(s) && s.kind != Kind::Sync)
            return false;
    return true;
}

void
checkWorkload(const Workload &w)
{
    VCB_ASSERT(!(w.converged && w.bodyFor),
               "%s: converge-until workloads must use the uniform body",
               w.name.c_str());
    VCB_ASSERT(w.bodyFor == nullptr || w.iterations != UINT32_MAX,
               "%s: per-iteration bodies need a finite trip count",
               w.name.c_str());
    auto checkSteps = [&](const std::vector<WorkloadStep> &steps,
                          const char *which, bool dag_timed) {
        for (size_t i = 0; i < steps.size(); ++i) {
            for (size_t d : steps[i].deps)
                VCB_ASSERT(d < i,
                           "%s: %s step %zu depends on step %zu — deps "
                           "must point backwards (list order is the "
                           "topological order)",
                           w.name.c_str(), which, i, d);
            if (dag_timed)
                VCB_ASSERT(steps[i].kind != Kind::Barrier,
                           "%s: dag %s expresses ordering via deps, "
                           "not barrier steps",
                           w.name.c_str(), which);
        }
    };
    checkSteps(w.prologue, "prologue", w.dag);
    checkSteps(w.body, "body", w.dag);
    checkSteps(w.epilogue, "epilogue", false);
    for (const WorkloadStep &s : w.inspect)
        VCB_ASSERT(s.kind == Kind::Readback,
                   "%s: inspect steps must be readbacks", w.name.c_str());
    VCB_ASSERT(!(w.dag && w.bodyFor),
               "%s: dag workloads need a uniform body", w.name.c_str());
}

/** Validation epilogue shared by the three runners. */
void
finishRun(const Workload &w, const HostArrays &host, RunResult &res)
{
    res.validationError = w.validate ? w.validate(host) : "";
    res.validated = res.validationError.empty();
    res.ok = true;
}

} // namespace

namespace {

/** Applicability over pre-materialized per-iteration bodies (`bodies`
 *  empty when the workload uses the uniform `body`), so callers that
 *  already materialized them don't pay bodyFor again. */
bool
strategyApplicableOver(
    const Workload &w, SubmitStrategy s,
    const std::vector<std::vector<WorkloadStep>> &bodies)
{
    switch (s) {
      case SubmitStrategy::ReRecord:
        return true;
      case SubmitStrategy::RecordOnce:
        // The same recorded commands must be valid every iteration:
        // one uniform body whose push values never move.
        return !w.bodyFor && pushesImmediate(w.body);
      case SubmitStrategy::Batched: {
        // The host cannot intervene inside a batch: fixed trip count,
        // no host steps, no host-resolved pushes.
        if (w.converged)
            return false;
        if (!w.bodyFor)
            return pureDevice(w.body) && pushesImmediate(w.body);
        for (const auto &b : bodies)
            if (!pureDevice(b) || !pushesImmediate(b))
                return false;
        return true;
      }
    }
    return false;
}

std::vector<std::vector<WorkloadStep>>
materializeBodies(const Workload &w)
{
    std::vector<std::vector<WorkloadStep>> bodies;
    if (w.bodyFor)
        for (uint32_t it = 0; it < w.iterations; ++it)
            bodies.push_back(w.bodyFor(it));
    return bodies;
}

} // namespace

bool
strategyApplicable(const Workload &w, SubmitStrategy s)
{
    // Only the Batched check over a per-iteration body needs the
    // materialized step lists.
    if (s == SubmitStrategy::Batched && w.bodyFor && !w.converged)
        return strategyApplicableOver(w, s, materializeBodies(w));
    return strategyApplicableOver(w, s, {});
}

std::vector<SubmitStrategy>
applicableStrategies(const Workload &w)
{
    std::vector<SubmitStrategy> out;
    for (int i = 0; i < submitStrategyCount; ++i) {
        auto s = static_cast<SubmitStrategy>(i);
        if (strategyApplicable(w, s))
            out.push_back(s);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Vulkan runner
// ---------------------------------------------------------------------------

namespace {

/** Per-run Vulkan execution state: context, compiled kernels, buffers
 *  (device-local or persistently mapped host-visible), the descriptor
 *  set cache, and the streaming recorder used by the ReRecord path,
 *  prologues and epilogues. */
struct VkRun
{
    const Workload &w;
    VkContext ctx;
    std::vector<VkKernel> kernels;
    std::vector<vkm::Buffer> buffers;
    std::vector<uint32_t *> maps; ///< non-null for hostVisible buffers
    HostArrays host;
    RunResult &res;

    vkm::Fence fence;
    vkm::CommandBuffer streamCb;
    bool streaming = false;
    uint64_t streamDispatches = 0;

    using SetKey =
        std::pair<size_t, std::vector<std::pair<uint32_t, size_t>>>;
    std::map<SetKey, vkm::DescriptorSet> sets;

    /** Redundant-state elision within one command-buffer recording:
     *  the hand-written drivers hoisted pipeline binds and unchanged
     *  push constants out of their loops (pathfinder binds its one
     *  pipeline once for all rows; hotspot pushes its constants once
     *  for all steps), and on drivers where binds are expensive (the
     *  Snapdragon push-constant quirk) that is what preserves the
     *  command-buffer win.  Reset at every begin. */
    vkm::Pipeline lastPipeline;
    vkm::DescriptorSet lastSet;
    vkm::PipelineLayout lastPushLayout;
    std::vector<uint32_t> lastPushWords;

    void resetRecordState()
    {
        lastPipeline.reset();
        lastSet.reset();
        lastPushLayout.reset();
        lastPushWords.clear();
    }

    VkRun(const Workload &wl, const sim::DeviceSpec &dev, RunResult &r)
        : w(wl), ctx(VkContext::create(dev)), host(wl.host), res(r)
    {
    }

    /** Compile every kernel; non-empty return = skip reason. */
    std::string compileKernels()
    {
        kernels.resize(w.kernels.size());
        for (size_t i = 0; i < w.kernels.size(); ++i) {
            std::string err =
                createVkKernel(ctx, w.kernels[i], &kernels[i]);
            if (!err.empty())
                return err;
        }
        return "";
    }

    /** Create and initialise every buffer; non-empty = skip reason
     *  (heap exhaustion surfaces here, not as a fatal). */
    std::string createBuffers()
    {
        maps.assign(w.buffers.size(), nullptr);
        for (size_t i = 0; i < w.buffers.size(); ++i) {
            const WorkloadBuffer &bd = w.buffers[i];
            if (bd.hostVisible) {
                buffers.push_back(ctx.createHostBuffer(bd.bytes));
            } else {
                buffers.push_back(ctx.createDeviceBuffer(bd.bytes));
            }
            if (!buffers.back().valid())
                return strprintf("out of device memory (buffer %zu, "
                                 "%llu B)",
                                 i, (unsigned long long)bd.bytes);
            if (bd.hostVisible)
                maps[i] = ctx.map(buffers.back());
            if (!bd.init.empty()) {
                if (maps[i])
                    std::memcpy(maps[i], bd.init.data(),
                                bd.init.size() * 4);
                else if (!ctx.upload(buffers[i], bd.init.data(),
                                     bd.init.size() * 4))
                    return strprintf("out of host-visible memory "
                                     "staging buffer %zu",
                                     i);
            }
        }
        vkm::check(vkm::createFence(ctx.device, &fence), "createFence");
        vkm::check(vkm::allocateCommandBuffer(ctx.device, ctx.cmdPool,
                                              &streamCb),
                   "allocateCommandBuffer");
        return "";
    }

    vkm::DescriptorSet setFor(const WorkloadStep &s)
    {
        SetKey key{s.kernel, s.bindings};
        auto it = sets.find(key);
        if (it != sets.end())
            return it->second;
        std::vector<std::pair<uint32_t, vkm::Buffer>> binds;
        for (const auto &[binding, buf] : s.bindings)
            binds.push_back({binding, buffers[buf]});
        vkm::DescriptorSet set =
            makeDescriptorSet(ctx, kernels[s.kernel], binds);
        sets.emplace(std::move(key), set);
        return set;
    }

    /** Pre-create every descriptor set a step list will need (before
     *  the timed region, matching the hand-written drivers). */
    void prescanSets(const std::vector<WorkloadStep> &steps)
    {
        for (const auto &s : steps)
            if (s.kind == Kind::Dispatch)
                setFor(s);
    }

    void recordDispatch(vkm::CommandBuffer cb, const WorkloadStep &s)
    {
        const VkKernel &k = kernels[s.kernel];
        if (!(lastPipeline == k.pipeline)) {
            vkm::cmdBindPipeline(cb, k.pipeline);
            lastPipeline = k.pipeline;
        }
        vkm::DescriptorSet set = setFor(s);
        if (!(lastSet == set)) {
            vkm::cmdBindDescriptorSet(cb, k.layout, 0, set);
            lastSet = set;
        }
        if (!s.push.empty()) {
            std::vector<uint32_t> words(s.push.size());
            for (size_t i = 0; i < s.push.size(); ++i)
                words[i] = resolvePush(s.push[i], host);
            if (!(lastPushLayout == k.layout) ||
                words != lastPushWords) {
                vkm::cmdPushConstants(cb, k.layout, 0,
                                      (uint32_t)words.size() * 4,
                                      words.data());
                lastPushLayout = k.layout;
                lastPushWords = words;
            }
        }
        vkm::cmdDispatch(cb, s.groups[0], s.groups[1], s.groups[2]);
    }

    void submitWait(vkm::CommandBuffer cb)
    {
        vkm::SubmitInfo si;
        si.commandBuffers.push_back(cb);
        vkm::check(vkm::queueSubmit(ctx.queue, {si}, fence),
                   "queueSubmit");
        vkm::check(vkm::waitForFences(ctx.device, {fence}),
                   "waitForFences");
        vkm::check(vkm::resetFences(ctx.device, {fence}), "resetFences");
    }

    /** Submit + wait whatever the streaming recorder holds. */
    void flushStream()
    {
        if (!streaming)
            return;
        vkm::check(vkm::endCommandBuffer(streamCb), "endCommandBuffer");
        submitWait(streamCb);
        res.launches += streamDispatches;
        streaming = false;
        streamDispatches = 0;
    }

    /** Execute one host-side step (device work already flushed). */
    void execHostStep(const WorkloadStep &s)
    {
        switch (s.kind) {
          case Kind::Sync:
            break; // the flush preceding this call was the sync
          case Kind::Upload: {
            if (!uploadEnabled(s, host))
                break;
            const auto &src = host[s.hostArray];
            if (maps[s.buffer])
                std::memcpy(maps[s.buffer], src.data(), src.size() * 4);
            else
                ctx.upload(buffers[s.buffer], src.data(),
                           src.size() * 4);
            break;
          }
          case Kind::Readback: {
            auto &dst = host[s.hostArray];
            if (maps[s.buffer])
                std::memcpy(dst.data(), maps[s.buffer], dst.size() * 4);
            else
                ctx.download(buffers[s.buffer], dst.data(),
                             dst.size() * 4);
            break;
          }
          case Kind::HostCall:
            s.fn(host);
            break;
          default:
            fatal("not a host step");
        }
    }

    /** Streaming executor: record device runs as encountered, flush at
     *  every host step.  Used for prologues, epilogues and the whole
     *  body under ReRecord. */
    void execStream(const std::vector<WorkloadStep> &steps)
    {
        for (const auto &s : steps) {
            switch (s.kind) {
              case Kind::Dispatch:
                if (!streaming) {
                    vkm::check(vkm::resetCommandBuffer(streamCb),
                               "resetCommandBuffer");
                    vkm::check(vkm::beginCommandBuffer(streamCb),
                               "beginCommandBuffer");
                    resetRecordState();
                    streaming = true;
                }
                recordDispatch(streamCb, s);
                ++streamDispatches;
                break;
              case Kind::Barrier:
                if (streaming)
                    vkm::cmdPipelineBarrier(streamCb);
                break;
              default:
                flushStream();
                execHostStep(s);
                break;
            }
        }
    }
};

/** A pre-recorded command buffer plus its dispatch count. */
struct Segment
{
    vkm::CommandBuffer cb;
    uint64_t dispatches = 0;
};

/** Record the device runs of a uniform body into one command buffer
 *  per segment (a segment = a maximal run of dispatch/barrier steps). */
std::vector<Segment>
recordSegments(VkRun &run, const std::vector<WorkloadStep> &steps)
{
    std::vector<Segment> segs;
    bool open = false;
    for (const auto &s : steps) {
        if (s.kind == Kind::Dispatch) {
            if (!open) {
                Segment seg;
                vkm::check(vkm::allocateCommandBuffer(
                               run.ctx.device, run.ctx.cmdPool, &seg.cb),
                           "allocateCommandBuffer");
                vkm::check(vkm::beginCommandBuffer(seg.cb),
                           "beginCommandBuffer");
                run.resetRecordState();
                segs.push_back(seg);
                open = true;
            }
            run.recordDispatch(segs.back().cb, s);
            ++segs.back().dispatches;
        } else if (s.kind == Kind::Barrier) {
            if (open)
                vkm::cmdPipelineBarrier(segs.back().cb);
        } else {
            if (open)
                vkm::check(vkm::endCommandBuffer(segs.back().cb),
                           "endCommandBuffer");
            open = false;
        }
    }
    if (open)
        vkm::check(vkm::endCommandBuffer(segs.back().cb),
                   "endCommandBuffer");
    return segs;
}

/** Execute one iteration of a uniform body against its pre-recorded
 *  segments: resubmit each segment where its device run sits, execute
 *  host steps in between. */
void
execRecordOnceIteration(VkRun &run, const std::vector<WorkloadStep> &steps,
                        const std::vector<Segment> &segs)
{
    size_t seg = 0;
    bool in_run = false;
    for (const auto &s : steps) {
        if (isDeviceStep(s)) {
            if (!in_run) {
                VCB_ASSERT(seg < segs.size(), "segment underflow");
                run.submitWait(segs[seg].cb);
                run.res.launches += segs[seg].dispatches;
                ++seg;
                in_run = true;
            }
        } else {
            in_run = false;
            run.execHostStep(s);
        }
    }
}

/** Record the whole fixed-trip-count loop into batch command buffers
 *  of `batch_n` iterations each (0 = all in one), with a barrier at
 *  every iteration boundary.  `bodies` holds the pre-materialized
 *  per-iteration step lists (empty for a uniform body). */
std::vector<Segment>
recordBatches(VkRun &run, const Workload &w,
              const std::vector<std::vector<WorkloadStep>> &bodies,
              uint32_t batch_n)
{
    std::vector<Segment> batches;
    if (batch_n == 0)
        batch_n = w.iterations;
    bool open = false;
    bool last_was_barrier = true;
    uint32_t in_batch = 0;
    auto close = [&]() {
        if (open)
            vkm::check(vkm::endCommandBuffer(batches.back().cb),
                       "endCommandBuffer");
        open = false;
        in_batch = 0;
    };
    for (uint32_t it = 0; it < w.iterations; ++it) {
        if (!open) {
            Segment seg;
            vkm::check(vkm::allocateCommandBuffer(
                           run.ctx.device, run.ctx.cmdPool, &seg.cb),
                       "allocateCommandBuffer");
            vkm::check(vkm::beginCommandBuffer(seg.cb),
                       "beginCommandBuffer");
            run.resetRecordState();
            batches.push_back(seg);
            open = true;
            last_was_barrier = true;
        }
        for (const auto &s : w.bodyFor ? bodies[it] : w.body) {
            if (s.kind == Kind::Dispatch) {
                run.recordDispatch(batches.back().cb, s);
                ++batches.back().dispatches;
                last_was_barrier = false;
            } else if (s.kind == Kind::Barrier ||
                       s.kind == Kind::Sync) {
                // In-batch Sync degenerates to an execution barrier;
                // no doubling when the body already ends with one.
                if (!last_was_barrier)
                    vkm::cmdPipelineBarrier(batches.back().cb);
                last_was_barrier = true;
            }
        }
        // Order the next iteration behind this one.
        if (!last_was_barrier && it + 1 < w.iterations &&
            in_batch + 1 < batch_n) {
            vkm::cmdPipelineBarrier(batches.back().cb);
            last_was_barrier = true;
        }
        if (++in_batch == batch_n)
            close();
    }
    close();
    return batches;
}

// ---------------------------------------------------------------------------
// Multi-queue DAG scheduler
// ---------------------------------------------------------------------------

/** One dispatch of a dag step list, placed on a compute queue, with
 *  its own command buffer and fence and the cross-queue semaphore
 *  edges it waits on / signals. */
struct DagNode
{
    size_t step = 0;    ///< index into the step list
    uint32_t queue = 0; ///< compute-queue index
    std::vector<size_t> waits;   ///< edge indices (into DagPlan::edges)
    std::vector<size_t> signals; ///< edge indices
    vkm::CommandBuffer cb;
    vkm::Fence fence;
};

/** The static schedule of one dag step list: computed once (dag bodies
 *  are uniform), replayed every iteration. */
struct DagPlan
{
    std::vector<DagNode> nodes;  ///< one per Dispatch step, list order
    std::vector<size_t> nodeOf;  ///< step index -> node index / SIZE_MAX
    std::vector<vkm::Semaphore> edges; ///< one per cross-queue edge
};

/**
 * Assign each dispatch to a queue and materialize the cross-queue
 * semaphore edges.
 *
 * Placement: a dispatch inherits the queue of its first
 * dispatch-dependency (keeping a dependent chain on one queue, so the
 * chain's spine needs no semaphores — in-queue order covers it); roots
 * round-robin across the `queues` available queues.  Every remaining
 * dependency that crosses queues gets a dedicated binary semaphore,
 * signaled by the producer's submit and consumed by the consumer's —
 * consumption (vkm clears `signaled` on wait) is what lets the same
 * semaphore serve every iteration.
 */
DagPlan
buildDagPlan(VkRun &run, const std::vector<WorkloadStep> &steps,
             uint32_t queues)
{
    DagPlan plan;
    plan.nodeOf.assign(steps.size(), SIZE_MAX);
    uint32_t rr = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
        if (steps[i].kind != Kind::Dispatch)
            continue;
        DagNode node;
        node.step = i;
        node.queue = UINT32_MAX;
        for (size_t d : steps[i].deps)
            if (plan.nodeOf[d] != SIZE_MAX) {
                node.queue = plan.nodes[plan.nodeOf[d]].queue;
                break;
            }
        if (node.queue == UINT32_MAX)
            node.queue = rr++ % queues;
        vkm::check(vkm::allocateCommandBuffer(run.ctx.device,
                                              run.ctx.cmdPool, &node.cb),
                   "allocateCommandBuffer");
        vkm::check(vkm::createFence(run.ctx.device, &node.fence),
                   "createFence");
        plan.nodeOf[i] = plan.nodes.size();
        plan.nodes.push_back(std::move(node));
        DagNode &self = plan.nodes.back();
        for (size_t d : steps[i].deps) {
            size_t pn = plan.nodeOf[d];
            if (pn == SIZE_MAX || plan.nodes[pn].queue == self.queue)
                continue;
            vkm::Semaphore sem;
            vkm::check(vkm::createSemaphore(run.ctx.device, &sem),
                       "createSemaphore");
            plan.nodes[pn].signals.push_back(plan.edges.size());
            self.waits.push_back(plan.edges.size());
            plan.edges.push_back(sem);
        }
    }
    return plan;
}

/** (Re-)record one node's self-contained command buffer.  Recording
 *  advances no simulated clock, so RecordOnce and ReRecord differ only
 *  in when this runs, never in the timeline. */
void
recordDagNode(VkRun &run, DagNode &node, const WorkloadStep &s)
{
    vkm::check(vkm::resetCommandBuffer(node.cb), "resetCommandBuffer");
    vkm::check(vkm::beginCommandBuffer(node.cb), "beginCommandBuffer");
    run.resetRecordState();
    run.recordDispatch(node.cb, s);
    vkm::check(vkm::endCommandBuffer(node.cb), "endCommandBuffer");
}

/**
 * Execute one pass over a dag step list against its plan: dispatches
 * submit to their assigned queue (one submit per node, fence always
 * attached), host steps first fence-wait the dispatches they depend on
 * (all submitted so far when they declare none — conservative), and
 * the pass ends with a single join over every fence so the next
 * iteration reuses them.  Submission happens in list order, so the
 * functional (eager) results are bit-identical to the serial path by
 * construction — queue count only moves the simulated timeline.
 */
void
execDag(VkRun &run, const std::vector<WorkloadStep> &steps,
        DagPlan &plan, bool rerecord)
{
    std::vector<bool> submitted(plan.nodes.size(), false);
    for (size_t i = 0; i < steps.size(); ++i) {
        const WorkloadStep &s = steps[i];
        if (s.kind == Kind::Dispatch) {
            DagNode &node = plan.nodes[plan.nodeOf[i]];
            if (rerecord)
                recordDagNode(run, node, s);
            vkm::SubmitInfo si;
            for (size_t e : node.waits)
                si.waitSemaphores.push_back(plan.edges[e]);
            si.commandBuffers.push_back(node.cb);
            for (size_t e : node.signals)
                si.signalSemaphores.push_back(plan.edges[e]);
            vkm::check(vkm::queueSubmit(run.ctx.computeQueues[node.queue],
                                        {si}, node.fence),
                       "queueSubmit");
            submitted[plan.nodeOf[i]] = true;
            ++run.res.launches;
        } else {
            std::vector<vkm::Fence> wait;
            if (!s.deps.empty()) {
                for (size_t d : s.deps) {
                    size_t n = plan.nodeOf[d];
                    if (n != SIZE_MAX && submitted[n])
                        wait.push_back(plan.nodes[n].fence);
                }
            } else {
                for (size_t n = 0; n < plan.nodes.size(); ++n)
                    if (submitted[n])
                        wait.push_back(plan.nodes[n].fence);
            }
            if (!wait.empty())
                vkm::check(vkm::waitForFences(run.ctx.device, wait),
                           "waitForFences");
            run.execHostStep(s);
        }
    }
    std::vector<vkm::Fence> all;
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        if (submitted[n])
            all.push_back(plan.nodes[n].fence);
    if (!all.empty()) {
        vkm::check(vkm::waitForFences(run.ctx.device, all),
                   "waitForFences");
        vkm::check(vkm::resetFences(run.ctx.device, all), "resetFences");
    }
}

} // namespace

RunResult
runWorkloadVulkan(const Workload &w, const sim::DeviceSpec &dev,
                  const WorkloadOptions &opts, HostArrays *host_out)
{
    checkWorkload(w);
    SubmitStrategy strat = opts.strategy.value_or(w.preferred);
    // Materialize per-iteration bodies once; the applicability check,
    // descriptor prescan, recording and the ReRecord loop all reuse
    // them.
    std::vector<std::vector<WorkloadStep>> bodies =
        materializeBodies(w);
    VCB_ASSERT(strategyApplicableOver(w, strat, bodies),
               "%s: strategy %s not applicable", w.name.c_str(),
               strategyName(strat));
    const bool multiq = opts.queueCount > 0;
    if (multiq) {
        VCB_ASSERT(w.dag, "%s: multi-queue mode needs a dag workload",
                   w.name.c_str());
        VCB_ASSERT(strat != SubmitStrategy::Batched,
                   "%s: batched submits whole iterations at once — "
                   "nothing is left to spread across queues",
                   w.name.c_str());
    }

    RunResult res;
    res.strategy = strategyName(strat);
    VkRun run(w, dev, res);
    res.skipReason = run.compileKernels();
    if (!res.skipReason.empty())
        return res;
    const uint32_t nq =
        multiq ? std::min<uint32_t>(
                     opts.queueCount,
                     (uint32_t)run.ctx.computeQueues.size())
               : 1;
    res.queuesUsed = nq;

    double t_total0 = run.ctx.now();
    res.skipReason = run.createBuffers();
    if (!res.skipReason.empty())
        return res;

    // Pre-create descriptor sets and pre-record what the strategy
    // allows, all outside the timed region (as the hand-written
    // drivers did).
    run.prescanSets(w.prologue);
    run.prescanSets(w.epilogue);
    if (w.bodyFor) {
        for (const auto &b : bodies)
            run.prescanSets(b);
    } else {
        run.prescanSets(w.body);
    }
    std::vector<Segment> prerec;
    DagPlan proPlan, bodyPlan;
    if (multiq) {
        proPlan = buildDagPlan(run, w.prologue, nq);
        bodyPlan = buildDagPlan(run, w.body, nq);
        if (strat == SubmitStrategy::RecordOnce)
            for (DagNode &n : bodyPlan.nodes)
                recordDagNode(run, n, w.body[n.step]);
    } else if (strat == SubmitStrategy::RecordOnce) {
        prerec = recordSegments(run, w.body);
    } else if (strat == SubmitStrategy::Batched) {
        prerec = recordBatches(run, w, bodies, opts.batchN);
    }

    double t0 = run.ctx.now();
    double busy0 = vkm::deviceBusyNs(run.ctx.device);
    if (multiq) {
        // The prologue runs once: record at execution time (recording
        // is free on the simulated clock either way).
        execDag(run, w.prologue, proPlan, true);
        for (uint32_t it = 0; it < w.iterations; ++it) {
            execDag(run, w.body, bodyPlan,
                    strat == SubmitStrategy::ReRecord);
            if (w.converged && w.converged(run.host))
                break;
        }
        res.kernelRegionNs = run.ctx.now() - t0;
        res.deviceBusyNs = vkm::deviceBusyNs(run.ctx.device) - busy0;

        run.execStream(w.epilogue);
        run.flushStream();
        res.totalNs = run.ctx.now() - t_total0;
        res.migratedBytes = vkm::uvmMigratedBytes(run.ctx.device);
        res.faultNs = vkm::uvmFaultNs(run.ctx.device);
        run.execStream(w.inspect);

        finishRun(w, run.host, res);
        if (host_out)
            *host_out = std::move(run.host);
        return res;
    }
    run.execStream(w.prologue);
    run.flushStream();
    switch (strat) {
      case SubmitStrategy::RecordOnce:
        for (uint32_t it = 0; it < w.iterations; ++it) {
            execRecordOnceIteration(run, w.body, prerec);
            if (w.converged && w.converged(run.host))
                break;
        }
        break;
      case SubmitStrategy::ReRecord:
        for (uint32_t it = 0; it < w.iterations; ++it) {
            run.execStream(w.bodyFor ? bodies[it] : w.body);
            run.flushStream();
            if (w.converged && w.converged(run.host))
                break;
        }
        break;
      case SubmitStrategy::Batched:
        for (const Segment &batch : prerec) {
            run.submitWait(batch.cb);
            res.launches += batch.dispatches;
        }
        break;
    }
    run.flushStream();
    res.kernelRegionNs = run.ctx.now() - t0;
    res.deviceBusyNs = vkm::deviceBusyNs(run.ctx.device) - busy0;

    run.execStream(w.epilogue);
    run.flushStream();
    res.totalNs = run.ctx.now() - t_total0;
    res.migratedBytes = vkm::uvmMigratedBytes(run.ctx.device);
    res.faultNs = vkm::uvmFaultNs(run.ctx.device);
    run.execStream(w.inspect);

    finishRun(w, run.host, res);
    if (host_out)
        *host_out = std::move(run.host);
    return res;
}

// ---------------------------------------------------------------------------
// OpenCL runner
// ---------------------------------------------------------------------------

RunResult
runWorkloadOcl(const Workload &w, const sim::DeviceSpec &dev,
               HostArrays *host_out)
{
    checkWorkload(w);
    RunResult res;
    res.strategy = "per-launch";
    ocl::Context ctx(dev);
    // A Kernel references its Program non-owningly: keep the programs
    // alive for the whole run.
    std::vector<ocl::Program> programs;
    std::vector<ocl::Kernel> kernels;
    for (const spirv::Module &m : w.kernels) {
        programs.push_back(ocl::createProgramWithSource(ctx, m));
        std::string err;
        if (!ocl::buildProgram(programs.back(), &err)) {
            res.skipReason = err;
            return res;
        }
        ocl::Kernel k = ocl::createKernel(programs.back(), m.name, &err);
        VCB_ASSERT(k.valid(), "kernel creation failed: %s", err.c_str());
        kernels.push_back(k);
    }

    double t_total0 = ctx.hostNowNs();
    std::vector<ocl::Buffer> buffers;
    for (size_t i = 0; i < w.buffers.size(); ++i) {
        const WorkloadBuffer &bd = w.buffers[i];
        buffers.push_back(
            ocl::createBuffer(ctx, ocl::MemReadWrite, bd.bytes));
        if (!buffers.back().valid()) {
            res.skipReason =
                strprintf("out of device memory (buffer %zu, %llu B)",
                          i, (unsigned long long)bd.bytes);
            return res;
        }
        if (!bd.init.empty())
            ocl::enqueueWriteBuffer(ctx, buffers.back(), true, 0,
                                    bd.init.size() * 4, bd.init.data());
    }

    HostArrays host = w.host;
    bool queue_busy = false;
    auto exec = [&](const std::vector<WorkloadStep> &steps) {
        for (const WorkloadStep &s : steps) {
            switch (s.kind) {
              case Kind::Dispatch: {
                const spirv::Module &m = w.kernels[s.kernel];
                ocl::Kernel &k = kernels[s.kernel];
                for (const auto &[binding, buf] : s.bindings)
                    ocl::setKernelArgBuffer(k, binding, buffers[buf]);
                for (uint32_t i = 0; i < s.push.size(); ++i)
                    ocl::setKernelArgScalar(k, i,
                                            resolvePush(s.push[i], host));
                ocl::enqueueNDRangeKernel(ctx, k,
                                          s.groups[0] * m.localSize[0],
                                          s.groups[1] * m.localSize[1],
                                          s.groups[2] * m.localSize[2]);
                ++res.launches;
                queue_busy = true;
                break;
              }
              case Kind::Barrier:
                break; // the in-order queue is the barrier
              case Kind::Sync:
                ctx.finish();
                queue_busy = false;
                break;
              case Kind::Upload:
                if (uploadEnabled(s, host)) {
                    const auto &src = host[s.hostArray];
                    ocl::enqueueWriteBuffer(ctx, buffers[s.buffer],
                                            false, 0, src.size() * 4,
                                            src.data());
                    queue_busy = true;
                }
                break;
              case Kind::Readback: {
                auto &dst = host[s.hostArray];
                ocl::enqueueReadBuffer(ctx, buffers[s.buffer], true, 0,
                                       dst.size() * 4, dst.data());
                queue_busy = false;
                break;
              }
              case Kind::HostCall:
                s.fn(host);
                break;
            }
        }
    };

    double t0 = ctx.hostNowNs();
    exec(w.prologue);
    std::vector<WorkloadStep> scratch;
    for (uint32_t it = 0; it < w.iterations; ++it) {
        exec(bodyOf(w, it, scratch));
        if (w.converged && w.converged(host))
            break;
    }
    if (queue_busy)
        ctx.finish(); // drain enqueue-ahead work (nw) into the region
    res.kernelRegionNs = ctx.hostNowNs() - t0;

    exec(w.epilogue);
    res.totalNs = ctx.hostNowNs() - t_total0;
    res.migratedBytes = ocl::uvmMigratedBytes(ctx);
    res.faultNs = ocl::uvmFaultNs(ctx);
    exec(w.inspect);

    finishRun(w, host, res);
    if (host_out)
        *host_out = std::move(host);
    return res;
}

// ---------------------------------------------------------------------------
// CUDA runner
// ---------------------------------------------------------------------------

RunResult
runWorkloadCuda(const Workload &w, const sim::DeviceSpec &dev,
                HostArrays *host_out)
{
    checkWorkload(w);
    RunResult res;
    res.strategy = "per-launch";
    if (!cuda::available(dev)) {
        res.skipReason = "CUDA not supported on this device";
        return res;
    }
    cuda::Runtime rt(dev);
    std::vector<cuda::Function> fns;
    for (const spirv::Module &m : w.kernels)
        fns.push_back(rt.loadFunction(m));

    double t_total0 = rt.hostNowNs();
    std::vector<cuda::DevPtr> buffers;
    for (size_t i = 0; i < w.buffers.size(); ++i) {
        const WorkloadBuffer &bd = w.buffers[i];
        buffers.push_back(rt.malloc(bd.bytes));
        if (!buffers.back().valid()) {
            res.skipReason =
                strprintf("out of device memory (buffer %zu, %llu B)",
                          i, (unsigned long long)bd.bytes);
            return res;
        }
        if (!bd.init.empty())
            rt.memcpyHtoD(buffers.back(), bd.init.data(),
                          bd.init.size() * 4);
    }

    HostArrays host = w.host;
    bool queue_busy = false;
    auto exec = [&](const std::vector<WorkloadStep> &steps) {
        for (const WorkloadStep &s : steps) {
            switch (s.kind) {
              case Kind::Dispatch: {
                // cudaLaunchKernel takes buffer args positionally: the
                // kernel's bindings in ascending binding order.
                std::vector<std::pair<uint32_t, size_t>> ordered =
                    s.bindings;
                std::sort(ordered.begin(), ordered.end());
                std::vector<cuda::DevPtr> args;
                for (const auto &[binding, buf] : ordered) {
                    (void)binding;
                    args.push_back(buffers[buf]);
                }
                std::vector<uint32_t> scalars(s.push.size());
                for (size_t i = 0; i < s.push.size(); ++i)
                    scalars[i] = resolvePush(s.push[i], host);
                rt.launchKernel(fns[s.kernel], s.groups[0], s.groups[1],
                                s.groups[2], args, scalars);
                ++res.launches;
                queue_busy = true;
                break;
              }
              case Kind::Barrier:
                break; // streams execute in order
              case Kind::Sync:
                rt.deviceSynchronize();
                queue_busy = false;
                break;
              case Kind::Upload:
                if (uploadEnabled(s, host)) {
                    const auto &src = host[s.hostArray];
                    rt.memcpyHtoD(buffers[s.buffer], src.data(),
                                  src.size() * 4);
                }
                break;
              case Kind::Readback: {
                auto &dst = host[s.hostArray];
                rt.memcpyDtoH(dst.data(), buffers[s.buffer],
                              dst.size() * 4);
                queue_busy = false;
                break;
              }
              case Kind::HostCall:
                s.fn(host);
                break;
            }
        }
    };

    double t0 = rt.hostNowNs();
    exec(w.prologue);
    std::vector<WorkloadStep> scratch;
    for (uint32_t it = 0; it < w.iterations; ++it) {
        exec(bodyOf(w, it, scratch));
        if (w.converged && w.converged(host))
            break;
    }
    if (queue_busy)
        rt.deviceSynchronize();
    res.kernelRegionNs = rt.hostNowNs() - t0;

    exec(w.epilogue);
    res.totalNs = rt.hostNowNs() - t_total0;
    res.migratedBytes = cuda::uvmMigratedBytes(rt);
    res.faultNs = cuda::uvmFaultNs(rt);
    exec(w.inspect);

    finishRun(w, host, res);
    if (host_out)
        *host_out = std::move(host);
    return res;
}

RunResult
runWorkload(const Workload &w, const sim::DeviceSpec &dev, sim::Api api,
            const WorkloadOptions &opts, HostArrays *host_out)
{
    switch (api) {
      case sim::Api::Vulkan:
        return runWorkloadVulkan(w, dev, opts, host_out);
      case sim::Api::OpenCl:
        return runWorkloadOcl(w, dev, host_out);
      case sim::Api::Cuda:
        return runWorkloadCuda(w, dev, host_out);
    }
    return RunResult();
}

} // namespace vcb::suite
