#include "sim/interpreter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace vcb::sim {

namespace {

/**
 * Evaluate one hoisted template op (see MicroKernel::templateOps) on
 * the template register file.  Pure ops come from microop.h's op list,
 * as in the executors, so hoisting is bit-invisible.
 */
void
evalTemplateOp(const MicroOp &op, uint32_t *r, const DispatchContext &ctx,
               const spirv::Module &m)
{
#define VCB_TMPL1(name, expr)                                             \
    case MOp::name: {                                                     \
        const uint32_t x = r[op.b];                                       \
        r[op.a] = (expr);                                                 \
        break;                                                            \
    }
#define VCB_TMPL2(name, expr)                                             \
    case MOp::name: {                                                     \
        const uint32_t x = r[op.b], y = r[op.c];                          \
        r[op.a] = (expr);                                                 \
        break;                                                            \
    }
#define VCB_TMPL3(name, expr)                                             \
    case MOp::name: {                                                     \
        const uint32_t x = r[op.b], y = r[op.c], z = r[op.d];             \
        r[op.a] = (expr);                                                 \
        break;                                                            \
    }
    switch (op.op) {
      case MOp::Const: r[op.a] = op.b; break;
      case MOp::Mov: r[op.a] = r[op.b]; break;
      case MOp::LdPush: r[op.a] = ctx.push[op.b]; break;
      case MOp::LdBuiltin: {
        using spirv::Builtin;
        uint32_t v = 0;
        switch (static_cast<Builtin>(op.aux)) {
          case Builtin::NumGroupsX: v = ctx.groups[0]; break;
          case Builtin::NumGroupsY: v = ctx.groups[1]; break;
          case Builtin::NumGroupsZ: v = ctx.groups[2]; break;
          case Builtin::LocalSizeX: v = m.localSize[0]; break;
          case Builtin::LocalSizeY: v = m.localSize[1]; break;
          case Builtin::LocalSizeZ: v = m.localSize[2]; break;
          case Builtin::GlobalSizeX:
            v = ctx.groups[0] * m.localSize[0];
            break;
          case Builtin::GlobalSizeY:
            v = ctx.groups[1] * m.localSize[1];
            break;
          case Builtin::GlobalSizeZ:
            v = ctx.groups[2] * m.localSize[2];
            break;
          default:
            panic("non-uniform builtin %u in register template", op.aux);
        }
        r[op.a] = v;
        break;
      }
      VCB_PURE_OPS(VCB_TMPL1, VCB_TMPL2, VCB_TMPL3)
      case MOp::IMulAdd: {
        uint32_t t = r[op.b] * r[op.c];
        r[op.a] = t;
        r[op.d] = t + r[op.e];
        break;
      }
      case MOp::IAddAdd: {
        uint32_t t = r[op.b] + r[op.c];
        r[op.a] = t;
        r[op.d] = t + r[op.e];
        break;
      }
      default:
        panic("op %u is not template-pure", static_cast<unsigned>(op.op));
    }
#undef VCB_TMPL1
#undef VCB_TMPL2
#undef VCB_TMPL3
}

} // namespace

void
Interpreter::prepare(const DispatchContext &new_ctx)
{
    ctx = &new_ctx;
    kernel = new_ctx.kernel;
    VCB_ASSERT(kernel != nullptr, "dispatch without kernel");
    localCount = kernel->localCount();
    regs.resize(static_cast<size_t>(localCount) * kernel->module.regCount);
    pcs.resize(localCount);
    shared.resize(kernel->module.sharedWords);
    tier = effectiveExecTier(*kernel->micro);

    // Local-invocation ids per lane, computed once per dispatch: the
    // three divisions per lane entry were measurable at small kernels.
    lids.resize(localCount);
    const uint32_t lx = kernel->module.localSize[0];
    const uint32_t ly = kernel->module.localSize[1];
    for (uint32_t lane = 0; lane < localCount; ++lane)
        lids[lane] = {lane % lx, (lane / lx) % ly, lane / (lx * ly)};

    // Hoisted dispatch-uniform entry ops: evaluate once, then
    // broadcast the written registers to every lane.  The writers are
    // removed from the per-lane stream and write exactly once, so the
    // values stay correct for every workgroup of this dispatch.  The
    // register file is reg-major (reg * localCount + lane), so each
    // broadcast is one contiguous fill.
    const MicroKernel &mk = *kernel->micro;
    if (!mk.templateOps.empty()) {
        const uint32_t reg_count = kernel->module.regCount;
        std::vector<uint32_t> tmpl(reg_count, 0);
        for (const MicroOp &op : mk.templateOps)
            evalTemplateOp(op, tmpl.data(), *ctx, kernel->module);
        for (uint32_t dst : mk.templateDsts)
            std::fill_n(regs.begin() +
                            static_cast<size_t>(dst) * localCount,
                        localCount, tmpl[dst]);
    }
}

void
Interpreter::runWorkgroup(uint32_t wx, uint32_t wy, uint32_t wz,
                          WorkgroupStats &ws, CoalesceSampler *sampler)
{
    const MicroKernel &mk = *kernel->micro;
    // When lowering proved every register is written before it is
    // read, the zero-fill is unobservable: skip it.  Shared memory
    // keeps its deterministic zero state per workgroup.
    if (!mk.skipRegZeroInit)
        std::fill(regs.begin(), regs.end(), 0u);
    std::fill(shared.begin(), shared.end(), 0u);
    if (sampler)
        sampler->beginWorkgroup();

    ws.invocations += localCount;

    // Robust access forces the instrumented tier for this workgroup
    // regardless of the per-kernel selection, and so does a sampler on
    // the lane-major tier.  The trace/block tiers record a sampled
    // workgroup themselves: the sampler's line groups are sets, so the
    // op-major order records exactly what lane-major order does.
    const ExecTier t =
        (ctx->robustAccess ||
         (sampler != nullptr && tier == ExecTier::LaneMajor))
            ? ExecTier::Instrumented
            : tier;
    const bool op_major = t == ExecTier::Trace || t == ExecTier::Block;
    sampling = op_major ? sampler : nullptr;
    ws.tierWorkgroups[static_cast<size_t>(t)] += 1;

    // Phased execution, one executor call per phase: every lane runs
    // from its pc until Ret or Barrier.  At each phase boundary either
    // all lanes returned (done), all stopped at a barrier (release and
    // run the next phase), or the kernel diverged (trap).  Barrier-free
    // kernels complete in a single phase.  On the block/trace tiers a
    // phase whose lanes all resume at one pc runs op-major as one
    // whole-workgroup span; a phase that splits there (a divergent
    // branch or an atomic), or that starts from scattered resume
    // points, continues over lane blocks (runPhaseBlocks).  The
    // lane-major / instrumented tiers run every phase lane by lane.
    std::fill(pcs.begin(), pcs.end(), 0u);
    bool uniform = op_major;
    for (;;) {
        uint32_t done = 0;
        uint32_t at_barrier = 0;
        if (t == ExecTier::Instrumented) {
            runPhase<true>(0, localCount, wx, wy, wz, ws, sampler, done,
                           at_barrier);
        } else if (t == ExecTier::LaneMajor) {
            runPhase<false>(0, localCount, wx, wy, wz, ws, nullptr,
                            done, at_barrier);
        } else {
            SpanEnd end = SpanEnd::Split; // scattered resume points
            if (uniform && t == ExecTier::Trace)
                end = runSpan<0, true>(0, pcs[0], wx, wy, wz, ws);
            else if (uniform)
                end = runSpan<0, false>(0, pcs[0], wx, wy, wz, ws);
            if (end == SpanEnd::Done)
                done = localCount;
            else if (end == SpanEnd::Barrier)
                at_barrier = localCount;
            else
                runPhaseBlocks(wx, wy, wz, ws, done, at_barrier);
        }
        if (at_barrier == 0)
            break;
        if (done > 0) {
            panic("kernel '%s': barrier divergence in workgroup "
                  "(%u,%u,%u): %u lanes at barrier, %u returned",
                  kernel->module.name.c_str(), wx, wy, wz, at_barrier,
                  done);
        }
        // Release the barrier: every lane resumes past its Barrier.
        ws.barriers += 1;
        if (op_major) {
            uniform = true;
            for (uint32_t lane = 1; lane < localCount && uniform; ++lane)
                uniform = pcs[lane] == pcs[0];
        }
    }
    if (sampler)
        sampler->endWorkgroup();
}

/**
 * The lane executor walks the micro-op stream by pointer in a classic
 * switch-in-loop, one handler body per MOp.  NEXT falls through to the
 * following micro-op; XFER transfers control and charges the target's
 * straight-line run cost (see MicroKernel::costFrom).
 */
#define VCB_OP(name) case MOp::name:
#define NEXT break
#define XFER(target)                                                      \
    do {                                                                  \
        const uint32_t xfer_pc = (target);                                \
        ip = ops + xfer_pc;                                               \
        cycles += cost_from[xfer_pc];                                     \
        goto dispatch;                                                    \
    } while (0)

/** Lane register access: the register file is reg-major so the
 *  op-major executor reads each register as a contiguous lane vector;
 *  the lane-major executor indexes column `lane` via this macro. */
#define R(x) r[static_cast<size_t>(x) * lc]

/** Pure-op handlers, one per arity, generated from microop.h's op
 *  list. */
#define VCB_LANE1(name, expr)                                             \
    VCB_OP(name) {                                                        \
        const uint32_t x = R(ip->b);                                      \
        R(ip->a) = (expr);                                                \
        NEXT;                                                             \
    }
#define VCB_LANE2(name, expr)                                             \
    VCB_OP(name) {                                                        \
        const uint32_t x = R(ip->b), y = R(ip->c);                        \
        R(ip->a) = (expr);                                                \
        NEXT;                                                             \
    }
#define VCB_LANE3(name, expr)                                             \
    VCB_OP(name) {                                                        \
        const uint32_t x = R(ip->b), y = R(ip->c), z = R(ip->d);          \
        R(ip->a) = (expr);                                                \
        NEXT;                                                             \
    }
/** Fused compare+branch handler: write the flag, branch on sense. */
#define VCB_CMPBR(name, expr)                                             \
    VCB_OP(CmpBr##name) {                                                 \
        const uint32_t x = R(ip->b), y = R(ip->c);                        \
        const uint32_t cond = (expr);                                     \
        R(ip->a) = cond;                                                  \
        XFER(cond == ip->aux ? ip->d : pcOf() + 1);                       \
    }

template <bool Instrumented>
void
Interpreter::runPhase(uint32_t lane_begin, uint32_t lane_end,
                      uint32_t wx, uint32_t wy, uint32_t wz,
                      WorkgroupStats &ws, CoalesceSampler *sampler,
                      uint32_t &done_out, uint32_t &barrier_out)
{
    const CompiledKernel &k = *kernel;
    const MicroKernel &mk = *k.micro;
    const MicroOp *const ops = mk.ops.data();
    const uint32_t *const cost_from = mk.costFrom.data();
    const size_t lc = localCount;
    const BufferBinding *const bufs = ctx->buffers.data();
    uint64_t *const site_exec = ws.siteExec.data();
    uint32_t *const sh = shared.data();
    const uint64_t shared_words = shared.size();
    const bool robust = Instrumented && ctx->robustAccess;
    const uint32_t lx = k.module.localSize[0];
    const uint32_t ly = k.module.localSize[1];

    uint32_t lane = lane_begin;
    uint32_t done = 0;
    uint32_t at_barrier = 0;
    uint32_t *r = regs.data();
    const MicroOp *ip = nullptr;
    uint64_t cycles = 0;

    auto pcOf = [&]() -> uint32_t {
        return static_cast<uint32_t>(ip - ops);
    };

    auto oob = [&](uint32_t binding, uint64_t addr,
                   uint64_t words) -> void {
        panic("kernel '%s' @%u: binding %u access [%llu] out of bounds "
              "(%llu words)",
              k.module.name.c_str(), pcOf(), binding,
              (unsigned long long)addr, (unsigned long long)words);
    };

    /** Bounds-check/clamp one global-memory access and account it. */
    auto resolve = [&](uint32_t binding, uint64_t addr,
                       uint32_t site) -> uint32_t * {
        const BufferBinding &buf = bufs[binding];
        if (addr >= buf.words) [[unlikely]] {
            if (!robust)
                oob(binding, addr, buf.words);
            addr = buf.words ? buf.words - 1 : 0;
        }
        site_exec[site] += 1;
        if (Instrumented && sampler)
            sampler->record(lane, site, addr * 4);
        return buf.data + addr;
    };

    if (lane >= lane_end)
        return;

new_lane:
    // Per-lane entry: bind the lane's register column (the file is
    // reg-major: R(x) = regs[x * localCount + lane]), charge the first
    // straight-line run (issue cost is pre-summed per run: one add on
    // entry and per control transfer instead of per op), and execute.
    {
        const uint32_t start_pc = pcs[lane];
        r = regs.data() + lane;
        ip = ops + start_pc;
        cycles = cost_from[start_pc];
    }

dispatch:
    for (;;) {
        switch (ip->op) {

VCB_OP(Const)
    R(ip->a) = ip->b;
    NEXT;
VCB_OP(Mov)
    R(ip->a) = R(ip->b);
    NEXT;
VCB_OP(LdBuiltin) {
    using spirv::Builtin;
    const LaneId lid = lids[lane];
    uint32_t v = 0;
    switch (static_cast<Builtin>(ip->aux)) {
      case Builtin::GlobalIdX: v = wx * lx + lid.x; break;
      case Builtin::GlobalIdY: v = wy * ly + lid.y; break;
      case Builtin::GlobalIdZ:
        v = wz * k.module.localSize[2] + lid.z;
        break;
      case Builtin::LocalIdX: v = lid.x; break;
      case Builtin::LocalIdY: v = lid.y; break;
      case Builtin::LocalIdZ: v = lid.z; break;
      case Builtin::GroupIdX: v = wx; break;
      case Builtin::GroupIdY: v = wy; break;
      case Builtin::GroupIdZ: v = wz; break;
      case Builtin::NumGroupsX: v = ctx->groups[0]; break;
      case Builtin::NumGroupsY: v = ctx->groups[1]; break;
      case Builtin::NumGroupsZ: v = ctx->groups[2]; break;
      case Builtin::LocalSizeX: v = lx; break;
      case Builtin::LocalSizeY: v = ly; break;
      case Builtin::LocalSizeZ: v = k.module.localSize[2]; break;
      case Builtin::GlobalSizeX: v = ctx->groups[0] * lx; break;
      case Builtin::GlobalSizeY: v = ctx->groups[1] * ly; break;
      case Builtin::GlobalSizeZ:
        v = ctx->groups[2] * k.module.localSize[2];
        break;
      case Builtin::LocalLinearId: v = lane; break;
      case Builtin::Count: break;
    }
    R(ip->a) = v;
    NEXT;
}
VCB_OP(LdPush)
    // Range-checked at lowering against the validated module; the
    // engine asserts the dispatch provides the full block.
    R(ip->a) = ctx->push[ip->b];
    NEXT;

VCB_PURE_OPS(VCB_LANE1, VCB_LANE2, VCB_LANE3)
VCB_OP(IDiv)
    if (R(ip->c) == 0)
        panic("kernel '%s' @%u: integer division by zero",
              k.module.name.c_str(), pcOf());
    R(ip->a) = sdivWrap(R(ip->b), R(ip->c));
    NEXT;
VCB_OP(IRem)
    if (R(ip->c) == 0)
        panic("kernel '%s' @%u: integer remainder by zero",
              k.module.name.c_str(), pcOf());
    R(ip->a) = sremWrap(R(ip->b), R(ip->c));
    NEXT;

VCB_OP(LdBuf) {
    uint32_t *p = resolve(ip->b, R(ip->c), ip->d);
    R(ip->a) =
        std::atomic_ref<uint32_t>(*p).load(std::memory_order_relaxed);
    NEXT;
}
VCB_OP(StBuf) {
    uint32_t *p = resolve(ip->a, R(ip->b), ip->d);
    std::atomic_ref<uint32_t>(*p).store(R(ip->c),
                                        std::memory_order_relaxed);
    NEXT;
}
VCB_OP(LdShared) {
    uint64_t addr = R(ip->b);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared load [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    R(ip->a) = sh[addr];
    ws.sharedAccesses += 1;
    NEXT;
}
VCB_OP(StShared) {
    uint64_t addr = R(ip->a);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared store [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    sh[addr] = R(ip->b);
    ws.sharedAccesses += 1;
    NEXT;
}
VCB_OP(AtomIAdd) {
    uint32_t *p = resolve(ip->b, R(ip->c), ip->e);
    R(ip->a) = std::atomic_ref<uint32_t>(*p).fetch_add(
        R(ip->d), std::memory_order_relaxed);
    ws.atomicOps += 1;
    NEXT;
}
VCB_OP(AtomIOr) {
    uint32_t *p = resolve(ip->b, R(ip->c), ip->e);
    R(ip->a) = std::atomic_ref<uint32_t>(*p).fetch_or(
        R(ip->d), std::memory_order_relaxed);
    ws.atomicOps += 1;
    NEXT;
}
VCB_OP(AtomIMin)
VCB_OP(AtomIMax) {
    uint32_t *p = resolve(ip->b, R(ip->c), ip->e);
    std::atomic_ref<uint32_t> ref(*p);
    uint32_t old = ref.load(std::memory_order_relaxed);
    for (;;) {
        int32_t cur = bitsToS(old);
        int32_t arg = bitsToS(R(ip->d));
        int32_t want = ip->op == MOp::AtomIMin ? std::min(cur, arg)
                                               : std::max(cur, arg);
        if (want == cur)
            break;
        if (ref.compare_exchange_weak(old, static_cast<uint32_t>(want),
                                      std::memory_order_relaxed))
            break;
    }
    R(ip->a) = old;
    ws.atomicOps += 1;
    NEXT;
}

VCB_OP(Jmp)
    XFER(ip->a);
VCB_OP(BrTrue)
    XFER(R(ip->a) ? ip->b : pcOf() + 1);
VCB_OP(BrFalse)
    XFER(!R(ip->a) ? ip->b : pcOf() + 1);

VCB_COMPARE_OPS(VCB_CMPBR)

VCB_OP(IAddLd) {
    uint32_t addr = R(ip->b) + R(ip->c);
    R(ip->a) = addr;
    uint32_t *p = resolve(ip->aux, addr, ip->e);
    R(ip->d) =
        std::atomic_ref<uint32_t>(*p).load(std::memory_order_relaxed);
    NEXT;
}
VCB_OP(IAddSt) {
    uint32_t addr = R(ip->b) + R(ip->c);
    R(ip->a) = addr;
    uint32_t *p = resolve(ip->aux, addr, ip->e);
    std::atomic_ref<uint32_t>(*p).store(R(ip->d),
                                        std::memory_order_relaxed);
    NEXT;
}
VCB_OP(IMulAdd) {
    uint32_t t = R(ip->b) * R(ip->c);
    R(ip->a) = t;
    R(ip->d) = t + R(ip->e);
    NEXT;
}
VCB_OP(IAddAdd) {
    uint32_t t = R(ip->b) + R(ip->c);
    R(ip->a) = t;
    R(ip->d) = t + R(ip->e);
    NEXT;
}
VCB_OP(IAddLdSh) {
    uint32_t addr = R(ip->b) + R(ip->c);
    R(ip->a) = addr;
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared load [%u] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), addr,
               (unsigned long long)shared_words);
    R(ip->d) = sh[addr];
    ws.sharedAccesses += 1;
    NEXT;
}
VCB_OP(IAddStSh) {
    uint32_t addr = R(ip->b) + R(ip->c);
    R(ip->a) = addr;
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared store [%u] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), addr,
               (unsigned long long)shared_words);
    sh[addr] = R(ip->d);
    ws.sharedAccesses += 1;
    NEXT;
}
VCB_OP(MulAddLdSh) {
    uint32_t t = R(ip->b) * R(ip->c);
    R(ip->a) = t;
    uint32_t addr = t + R(ip->e);
    R(ip->d) = addr;
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared load [%u] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), addr,
               (unsigned long long)shared_words);
    R(ip->aux) = sh[addr];
    ws.sharedAccesses += 1;
    NEXT;
}
VCB_OP(MulAddStSh) {
    uint32_t t = R(ip->b) * R(ip->c);
    R(ip->a) = t;
    uint32_t addr = t + R(ip->e);
    R(ip->d) = addr;
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared store [%u] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), addr,
               (unsigned long long)shared_words);
    sh[addr] = R(ip->aux);
    ws.sharedAccesses += 1;
    NEXT;
}

VCB_OP(FMulFAdd) {
    const float t = bitsToF(R(ip->b)) * bitsToF(R(ip->c));
    R(ip->a) = fToBits(t);
    const float z = bitsToF(R(ip->e));
    R(ip->d) = fToBits(ip->aux & 1 ? t + z : z + t);
    NEXT;
}

VCB_OP(IDivRem) {
    const uint32_t num = R(ip->b);
    const uint32_t den = R(ip->c);
    if (den == 0)
        panic("kernel '%s' @%u: integer division by zero",
              k.module.name.c_str(), pcOf());
    R(ip->a) = sdivWrap(num, den);
    R(ip->d) = sremWrap(num, den);
    NEXT;
}

VCB_OP(SuperLoop) {
    // Fused counted loop (lowering pass 3.5): run to completion for
    // this lane.  The body is a SuperKind template whose scratch
    // registers the recognizer proved dead outside it, so
    // intermediates stay in locals.  Each iteration charges headCost +
    // bodyCost — the exact costFrom charges the unfused CmpBr/body/Jmp
    // stream pays per trip around the back edge — and the head's flag
    // register receives the final (failing) test's 0 before the
    // transfer to the exit pc.  The access order per lane is
    // unchanged, so resolve() keeps sampling, robust clamping and site
    // counts exact.
    const SuperOp &sup = mk.supers[ip->aux];
    uint64_t iters = 0;
    while (bitsToS(R(sup.loopB)) < bitsToS(R(sup.loopC))) {
        ++iters;
        switch (sup.kind) {
          case SuperKind::SqDistStep: {
            const uint32_t a1 =
                R(sup.r[0]) * R(sup.r[1]) + R(sup.r[2]);
            const uint32_t xv =
                std::atomic_ref<uint32_t>(*resolve(sup.buf[0], a1,
                                                   sup.site[0]))
                    .load(std::memory_order_relaxed);
            const uint32_t a2 = R(sup.r[3]) + R(sup.r[4]);
            const uint32_t yv =
                std::atomic_ref<uint32_t>(*resolve(sup.buf[1], a2,
                                                   sup.site[1]))
                    .load(std::memory_order_relaxed);
            const float d = bitsToF(xv) - bitsToF(yv);
            const float t = d * d;
            const float z = bitsToF(R(sup.r[5]));
            R(sup.r[5]) = fToBits(sup.aux & 1 ? t + z : z + t);
            R(sup.r[6]) = R(sup.r[7]) + R(sup.r[8]);
            break;
          }
          case SuperKind::ShDotStep: {
            const uint32_t a1 =
                R(sup.r[0]) * R(sup.r[1]) + R(sup.r[2]);
            VCB_ASSERT(a1 < shared_words,
                       "kernel '%s' @%u: shared load [%u] out of "
                       "bounds (%llu words)",
                       k.module.name.c_str(), pcOf(), a1,
                       (unsigned long long)shared_words);
            const uint32_t v1 = sh[a1];
            const uint32_t a2 =
                R(sup.r[6]) + (R(sup.r[3]) * R(sup.r[4]) + R(sup.r[5]));
            VCB_ASSERT(a2 < shared_words,
                       "kernel '%s' @%u: shared load [%u] out of "
                       "bounds (%llu words)",
                       k.module.name.c_str(), pcOf(), a2,
                       (unsigned long long)shared_words);
            const uint32_t v2 = sh[a2];
            R(sup.r[8]) = fToBits(std::fma(bitsToF(v1), bitsToF(v2),
                                           bitsToF(R(sup.r[7]))));
            R(sup.r[9]) = R(sup.r[10]) + R(sup.r[11]);
            ws.sharedAccesses += 2;
            break;
          }
          case SuperKind::Count:
            break;
        }
    }
    cycles += iters * (sup.headCost + sup.bodyCost);
    R(sup.loopFlag) = 0;
    XFER(sup.exitPc);
}
VCB_OP(Barrier)
    pcs[lane] = pcOf() + 1;
    ws.laneCycles += cycles;
    ++at_barrier;
    goto lane_done;
VCB_OP(Ret)
    ws.laneCycles += cycles;
    ++done;
    goto lane_done;

          case MOp::Count:
            panic("kernel '%s' @%u: invalid micro-op",
                  k.module.name.c_str(), pcOf());
        }
        ++ip;
    }

lane_done:
    if (++lane < lane_end)
        goto new_lane;
    done_out += done;
    barrier_out += at_barrier;
}

#undef VCB_LANE1
#undef VCB_LANE2
#undef VCB_LANE3
#undef VCB_CMPBR
#undef VCB_OP
#undef NEXT
#undef XFER
#undef R

template void
Interpreter::runPhase<false>(uint32_t, uint32_t, uint32_t, uint32_t,
                             uint32_t, WorkgroupStats &,
                             CoalesceSampler *, uint32_t &, uint32_t &);
template void
Interpreter::runPhase<true>(uint32_t, uint32_t, uint32_t, uint32_t,
                            uint32_t, WorkgroupStats &,
                            CoalesceSampler *, uint32_t &, uint32_t &);

void
Interpreter::runLanes(uint32_t lane_begin, uint32_t lane_end, uint32_t wx,
                      uint32_t wy, uint32_t wz, WorkgroupStats &ws,
                      uint32_t &done_out, uint32_t &barrier_out)
{
    if (sampling)
        runPhase<true>(lane_begin, lane_end, wx, wy, wz, ws, sampling,
                       done_out, barrier_out);
    else
        runPhase<false>(lane_begin, lane_end, wx, wy, wz, ws, nullptr,
                        done_out, barrier_out);
}

void
Interpreter::execSuper(const SuperOp &sup, uint32_t pc,
                       uint32_t lane_begin, uint32_t lane_end,
                       WorkgroupStats &ws)
{
    const CompiledKernel &k = *kernel;
    const size_t lc = localCount;
    uint32_t *const regs0 = regs.data();
    const BufferBinding *const bufs = ctx->buffers.data();
    uint64_t *const site_exec = ws.siteExec.data();
    uint32_t *const sh = shared.data();
    const uint64_t shared_words = shared.size();
    const uint32_t n = lane_end - lane_begin;
    // Lane vector of register x, offset to the first lane of the
    // range (the register file is reg-major).
    auto V = [&](uint32_t x) {
        return regs0 + static_cast<size_t>(x) * lc + lane_begin;
    };
    auto oob = [&](uint32_t binding, uint64_t addr,
                   uint64_t words) -> void {
        panic("kernel '%s' @%u: binding %u access [%llu] out of bounds "
              "(%llu words)",
              k.module.name.c_str(), pc, binding,
              (unsigned long long)addr, (unsigned long long)words);
    };

    // Statement order within each lane matches the fused op sequence
    // exactly, so register aliasing between the distilled operands
    // (e.g. the loop counter read early and incremented last) keeps
    // per-lane semantics; lanes are independent, so fusing the whole
    // body per lane is unobservable.
    //
    // The counted loop runs to completion ITERATION-major: per trip,
    // every still-active lane executes the body before any lane
    // advances — the lane-contiguous memory order of the op-major
    // executor, which is what keeps strided per-lane walks (kmeans
    // reads column gid of a 64K-point matrix) cache-friendly.  The
    // bodies only load from global/shared memory, so the order
    // difference from the lane-major reference is unobservable; a lane
    // whose condition fails stops updating its own registers, so
    // exited lanes stay exited.  The caller performs the exit
    // transfer.
    switch (sup.kind) {
      case SuperKind::SqDistStep: {
        const BufferBinding &b0 = bufs[sup.buf[0]];
        const BufferBinding &b1 = bufs[sup.buf[1]];
        const uint32_t *const IB = V(sup.r[0]);
        const uint32_t *const IC = V(sup.r[1]);
        const uint32_t *const IE = V(sup.r[2]);
        const uint32_t *const AB = V(sup.r[3]);
        const uint32_t *const AC = V(sup.r[4]);
        uint32_t *const ACC = V(sup.r[5]);
        uint32_t *const IA = V(sup.r[6]);
        const uint32_t *const NB = V(sup.r[7]);
        const uint32_t *const NC = V(sup.r[8]);
        const bool left = sup.aux & 1;
        auto body = [&](uint32_t l) __attribute__((always_inline)) {
            const uint32_t a1 = IB[l] * IC[l] + IE[l];
            if (a1 >= b0.words) [[unlikely]]
                oob(sup.buf[0], a1, b0.words);
            const uint32_t xv =
                std::atomic_ref<uint32_t>(b0.data[a1])
                    .load(std::memory_order_relaxed);
            const uint32_t a2 = AB[l] + AC[l];
            if (a2 >= b1.words) [[unlikely]]
                oob(sup.buf[1], a2, b1.words);
            const uint32_t yv =
                std::atomic_ref<uint32_t>(b1.data[a2])
                    .load(std::memory_order_relaxed);
            const float d = bitsToF(xv) - bitsToF(yv);
            const float t = d * d;
            const float z = bitsToF(ACC[l]);
            ACC[l] = fToBits(left ? t + z : z + t);
            IA[l] = NB[l] + NC[l];
        };
        // A sampled workgroup records both loads of lane l's next body
        // from the same registers body(l) reads them from; only body(l)
        // writes lane l's registers, so a pass ahead of the bodies sees
        // the same addresses.
        CoalesceSampler *const smp = sampling;
        std::vector<uint32_t> a1s, a2s;
        if (smp) {
            a1s.resize(n);
            a2s.resize(n);
        }
        auto sampleAll = [&] {
            for (uint32_t l = 0; l < n; ++l) {
                a1s[l] = IB[l] * IC[l] + IE[l];
                a2s[l] = AB[l] + AC[l];
            }
            smp->recordLanes(lane_begin, n, sup.site[0], a1s.data());
            smp->recordLanes(lane_begin, n, sup.site[1], a2s.data());
        };
        auto sample = [&](uint32_t l) {
            smp->record(lane_begin + l, sup.site[0],
                        uint64_t(IB[l] * IC[l] + IE[l]) * 4);
            smp->record(lane_begin + l, sup.site[1],
                        uint64_t(AB[l] + AC[l]) * 4);
        };
        const uint32_t *const LB = V(sup.loopB);
        const uint32_t *const LC = V(sup.loopC);
        uint32_t *const FL = V(sup.loopFlag);
        uint64_t total = 0;
        for (;;) {
            uint32_t active = 0;
            for (uint32_t l = 0; l < n; ++l)
                active += bitsToS(LB[l]) < bitsToS(LC[l]);
            if (active == 0)
                break;
            if (active == n) {
                if (smp)
                    sampleAll();
                for (uint32_t l = 0; l < n; ++l)
                    body(l);
            } else {
                for (uint32_t l = 0; l < n; ++l) {
                    if (bitsToS(LB[l]) >= bitsToS(LC[l]))
                        continue;
                    if (smp)
                        sample(l);
                    body(l);
                }
            }
            total += active;
        }
        std::fill_n(FL, n, 0u);
        site_exec[sup.site[0]] += total;
        site_exec[sup.site[1]] += total;
        ws.laneCycles += total * (sup.headCost + sup.bodyCost);
        break;
      }
      case SuperKind::ShDotStep: {
        const uint32_t *const MB = V(sup.r[0]);
        const uint32_t *const MC = V(sup.r[1]);
        const uint32_t *const ME = V(sup.r[2]);
        const uint32_t *const PB = V(sup.r[3]);
        const uint32_t *const PC = V(sup.r[4]);
        const uint32_t *const PE = V(sup.r[5]);
        const uint32_t *const SB = V(sup.r[6]);
        const uint32_t *const ZD = V(sup.r[7]);
        uint32_t *const ZA = V(sup.r[8]);
        uint32_t *const IA = V(sup.r[9]);
        const uint32_t *const NB = V(sup.r[10]);
        const uint32_t *const NC = V(sup.r[11]);
        auto body = [&](uint32_t l) __attribute__((always_inline)) {
            const uint32_t a1 = MB[l] * MC[l] + ME[l];
            if (a1 >= shared_words) [[unlikely]]
                panic("kernel '%s' @%u: shared load [%u] out of "
                      "bounds (%llu words)",
                      k.module.name.c_str(), pc, a1,
                      (unsigned long long)shared_words);
            const uint32_t v1 = sh[a1];
            const uint32_t a2 = SB[l] + (PB[l] * PC[l] + PE[l]);
            if (a2 >= shared_words) [[unlikely]]
                panic("kernel '%s' @%u: shared load [%u] out of "
                      "bounds (%llu words)",
                      k.module.name.c_str(), pc, a2,
                      (unsigned long long)shared_words);
            const uint32_t v2 = sh[a2];
            ZA[l] = fToBits(
                std::fma(bitsToF(v1), bitsToF(v2), bitsToF(ZD[l])));
            IA[l] = NB[l] + NC[l];
        };
        const uint32_t *const LB = V(sup.loopB);
        const uint32_t *const LC = V(sup.loopC);
        uint32_t *const FL = V(sup.loopFlag);
        uint64_t total = 0;
        for (;;) {
            uint32_t active = 0;
            for (uint32_t l = 0; l < n; ++l)
                active += bitsToS(LB[l]) < bitsToS(LC[l]);
            if (active == 0)
                break;
            if (active == n) {
                for (uint32_t l = 0; l < n; ++l)
                    body(l);
            } else {
                for (uint32_t l = 0; l < n; ++l)
                    if (bitsToS(LB[l]) < bitsToS(LC[l]))
                        body(l);
            }
            total += active;
        }
        std::fill_n(FL, n, 0u);
        ws.sharedAccesses += 2ull * total;
        ws.laneCycles += total * (sup.headCost + sup.bodyCost);
        break;
      }
      case SuperKind::Count:
        break;
    }
}

/** Lane vector of register x: the span's n contiguous lanes (rb points
 *  at the span's first-lane column of the reg-major file). */
#define V(x) (rb + static_cast<size_t>(x) * lc)
/** Element-wise pure ops over the span, one per arity, generated from
 *  microop.h's op list.  A may alias B/C/D only exactly (vector
 *  offsets are multiples of lc), which keeps the per-lane semantics of
 *  the lane-major path. */
#define VUN(name, expr)                                                   \
    case MOp::name: {                                                     \
        uint32_t *const A = V(in.a);                                      \
        const uint32_t *const B = V(in.b);                                \
        for (size_t l = 0; l < n; ++l) {                                  \
            const uint32_t x = B[l];                                      \
            A[l] = (expr);                                                \
        }                                                                 \
        break;                                                            \
    }
#define VBIN(name, expr)                                                  \
    case MOp::name: {                                                     \
        uint32_t *const A = V(in.a);                                      \
        const uint32_t *const B = V(in.b);                                \
        const uint32_t *const C = V(in.c);                                \
        for (size_t l = 0; l < n; ++l) {                                  \
            const uint32_t x = B[l], y = C[l];                            \
            A[l] = (expr);                                                \
        }                                                                 \
        break;                                                            \
    }
#define VTER(name, expr)                                                  \
    case MOp::name: {                                                     \
        uint32_t *const A = V(in.a);                                      \
        const uint32_t *const B = V(in.b);                                \
        const uint32_t *const C = V(in.c);                                \
        const uint32_t *const D = V(in.d);                                \
        for (size_t l = 0; l < n; ++l) {                                  \
            const uint32_t x = B[l], y = C[l], z = D[l];                  \
            A[l] = (expr);                                                \
        }                                                                 \
        break;                                                            \
    }
/** Fused compare+branch: flags written per lane, then the uniform /
 *  divergent decision.  Divergence writes every span lane's resume pc
 *  and splits.  The trace tier is only selected for branch-free
 *  kernels, so there the whole handler compiles down to a guard. */
#define VCMPBR(cmp, expr)                                                 \
    case MOp::CmpBr##cmp: {                                               \
        if constexpr (TraceTier) {                                        \
            panic("kernel '%s' @%u: branch reached the trace tier",       \
                  k.module.name.c_str(), pc);                             \
        } else {                                                          \
            uint32_t *const A = V(in.a);                                  \
            const uint32_t *const B = V(in.b);                            \
            const uint32_t *const C = V(in.c);                            \
            uint32_t taken = 0;                                           \
            const uint32_t sense = in.aux;                                \
            for (size_t l = 0; l < n; ++l) {                              \
                const uint32_t x = B[l];                                  \
                const uint32_t y = C[l];                                  \
                const uint32_t cond = (expr);                             \
                A[l] = cond;                                              \
                taken += cond == sense;                                   \
            }                                                             \
            if (taken == n || taken == 0) {                               \
                pc = taken ? in.d : pc + 1;                               \
                ws.laneCycles +=                                          \
                    static_cast<uint64_t>(cost_from[pc]) * n;             \
                continue;                                                 \
            }                                                             \
            for (size_t l = 0; l < n; ++l)                                \
                span_pcs[l] = A[l] == sense ? in.d : pc + 1;              \
            return SpanEnd::Split;                                        \
        }                                                                 \
    }

template <uint32_t N, bool TraceTier>
Interpreter::SpanEnd
Interpreter::runSpan(uint32_t base, uint32_t start_pc, uint32_t wx,
                     uint32_t wy, uint32_t wz, WorkgroupStats &ws)
{
    constexpr uint32_t W = kBlockW;
    const CompiledKernel &k = *kernel;
    const MicroKernel &mk = *k.micro;
    const MicroOp *const ops = mk.ops.data();
    const uint32_t *const cost_from = mk.costFrom.data();
    const size_t lc = localCount;
    // Lanes in the span: a compile-time trip count for a lane block.
    const size_t n = N ? N : lc;
    uint32_t *const rb = regs.data() + base;
    uint32_t *const span_pcs = pcs.data() + base;
    const LaneId *const lid = lids.data() + base;
    const BufferBinding *const bufs = ctx->buffers.data();
    uint64_t *const site_exec = ws.siteExec.data();
    uint32_t *const sh = shared.data();
    const uint64_t shared_words = shared.size();
    const uint32_t lx = k.module.localSize[0];
    const uint32_t ly = k.module.localSize[1];
    CoalesceSampler *const smp = sampling;

    uint32_t pc = start_pc;
    // Charge the whole straight-line run for every lane up front, as
    // the lane-major executor does per lane at entry.
    ws.laneCycles += static_cast<uint64_t>(cost_from[pc]) * n;

    auto oob = [&](uint32_t binding, uint64_t addr,
                   uint64_t words) -> void {
        panic("kernel '%s' @%u: binding %u access [%llu] out of bounds "
              "(%llu words)",
              k.module.name.c_str(), pc, binding,
              (unsigned long long)addr, (unsigned long long)words);
    };
    auto shOob = [&](const char *what, uint64_t addr) -> void {
        panic("kernel '%s' @%u: shared %s [%llu] out of bounds "
              "(%llu words)",
              k.module.name.c_str(), pc, what, (unsigned long long)addr,
              (unsigned long long)shared_words);
    };

    // W-chunk global-memory fast paths (a lane block is exactly one
    // chunk).  A chunk whose addresses are contiguous takes one bounds
    // test and one memcpy (word-aligned word copies cannot tear, and
    // the data-race-free contract every programming model requires
    // makes the non-atomic copy unobservable); a chunk loading one
    // uniform address takes a single load.  Anything else, and the
    // tail lanes, take the per-lane guarded loop, which also
    // reproduces the lane-major executor's first-offending-lane panic
    // on out-of-bounds access.
    auto loadVec = [&](uint32_t *A, const uint32_t *ADDR,
                       uint32_t binding) {
        const BufferBinding &buf = bufs[binding];
        size_t l = 0;
        for (; l + W <= n; l += W) {
            const uint32_t a0 = ADDR[l];
            bool contig = true;
            bool unif = true;
            for (uint32_t j = 1; j < W; ++j) {
                contig &= ADDR[l + j] == a0 + j;
                unif &= ADDR[l + j] == a0;
            }
            if (contig && uint64_t(a0) + W <= buf.words) {
                std::memcpy(A + l, buf.data + a0, W * sizeof(uint32_t));
            } else if (unif && a0 < buf.words) {
                const uint32_t v =
                    std::atomic_ref<uint32_t>(buf.data[a0])
                        .load(std::memory_order_relaxed);
                for (uint32_t j = 0; j < W; ++j)
                    A[l + j] = v;
            } else {
                for (uint32_t j = 0; j < W; ++j) {
                    const uint32_t addr = ADDR[l + j];
                    if (addr >= buf.words) [[unlikely]]
                        oob(binding, addr, buf.words);
                    A[l + j] =
                        std::atomic_ref<uint32_t>(buf.data[addr])
                            .load(std::memory_order_relaxed);
                }
            }
        }
        for (; l < n; ++l) {
            const uint32_t addr = ADDR[l];
            if (addr >= buf.words) [[unlikely]]
                oob(binding, addr, buf.words);
            A[l] = std::atomic_ref<uint32_t>(buf.data[addr])
                       .load(std::memory_order_relaxed);
        }
    };
    auto storeVec = [&](const uint32_t *S, const uint32_t *ADDR,
                        uint32_t binding) {
        const BufferBinding &buf = bufs[binding];
        size_t l = 0;
        for (; l + W <= n; l += W) {
            const uint32_t a0 = ADDR[l];
            bool contig = true;
            bool unif = true;
            for (uint32_t j = 1; j < W; ++j) {
                contig &= ADDR[l + j] == a0 + j;
                unif &= ADDR[l + j] == a0;
            }
            if (contig && uint64_t(a0) + W <= buf.words) {
                std::memcpy(buf.data + a0, S + l, W * sizeof(uint32_t));
            } else if (unif && a0 < buf.words) {
                // Sequential lanes overwrite one word: only the last
                // value survives, exactly as in the per-lane loop.
                std::atomic_ref<uint32_t>(buf.data[a0])
                    .store(S[l + W - 1], std::memory_order_relaxed);
            } else {
                for (uint32_t j = 0; j < W; ++j) {
                    const uint32_t addr = ADDR[l + j];
                    if (addr >= buf.words) [[unlikely]]
                        oob(binding, addr, buf.words);
                    std::atomic_ref<uint32_t>(buf.data[addr])
                        .store(S[l + j], std::memory_order_relaxed);
                }
            }
        }
        for (; l < n; ++l) {
            const uint32_t addr = ADDR[l];
            if (addr >= buf.words) [[unlikely]]
                oob(binding, addr, buf.words);
            std::atomic_ref<uint32_t>(buf.data[addr])
                .store(S[l], std::memory_order_relaxed);
        }
    };

    for (;;) {
        const MicroOp &in = ops[pc];
        switch (in.op) {
          case MOp::Const:
            std::fill_n(V(in.a), n, in.b);
            break;
          case MOp::Mov:
            std::copy_n(V(in.b), n, V(in.a));
            break;
          case MOp::LdBuiltin: {
            using spirv::Builtin;
            uint32_t *const A = V(in.a);
            switch (static_cast<Builtin>(in.aux)) {
              case Builtin::GlobalIdX:
                for (size_t l = 0; l < n; ++l)
                    A[l] = wx * lx + lid[l].x;
                break;
              case Builtin::GlobalIdY:
                for (size_t l = 0; l < n; ++l)
                    A[l] = wy * ly + lid[l].y;
                break;
              case Builtin::GlobalIdZ:
                for (size_t l = 0; l < n; ++l)
                    A[l] = wz * k.module.localSize[2] + lid[l].z;
                break;
              case Builtin::LocalIdX:
                for (size_t l = 0; l < n; ++l)
                    A[l] = lid[l].x;
                break;
              case Builtin::LocalIdY:
                for (size_t l = 0; l < n; ++l)
                    A[l] = lid[l].y;
                break;
              case Builtin::LocalIdZ:
                for (size_t l = 0; l < n; ++l)
                    A[l] = lid[l].z;
                break;
              case Builtin::LocalLinearId:
                for (size_t l = 0; l < n; ++l)
                    A[l] = static_cast<uint32_t>(base + l);
                break;
              case Builtin::GroupIdX: std::fill_n(A, n, wx); break;
              case Builtin::GroupIdY: std::fill_n(A, n, wy); break;
              case Builtin::GroupIdZ: std::fill_n(A, n, wz); break;
              case Builtin::NumGroupsX:
                std::fill_n(A, n, ctx->groups[0]);
                break;
              case Builtin::NumGroupsY:
                std::fill_n(A, n, ctx->groups[1]);
                break;
              case Builtin::NumGroupsZ:
                std::fill_n(A, n, ctx->groups[2]);
                break;
              case Builtin::LocalSizeX: std::fill_n(A, n, lx); break;
              case Builtin::LocalSizeY: std::fill_n(A, n, ly); break;
              case Builtin::LocalSizeZ:
                std::fill_n(A, n, k.module.localSize[2]);
                break;
              case Builtin::GlobalSizeX:
                std::fill_n(A, n, ctx->groups[0] * lx);
                break;
              case Builtin::GlobalSizeY:
                std::fill_n(A, n, ctx->groups[1] * ly);
                break;
              case Builtin::GlobalSizeZ:
                std::fill_n(A, n, ctx->groups[2] * k.module.localSize[2]);
                break;
              case Builtin::Count: std::fill_n(A, n, 0u); break;
            }
            break;
          }
          case MOp::LdPush:
            std::fill_n(V(in.a), n, ctx->push[in.b]);
            break;

          VCB_PURE_OPS(VUN, VBIN, VTER)
          case MOp::IDiv: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < n; ++l) {
                if (C[l] == 0)
                    panic("kernel '%s' @%u: integer division by zero",
                          k.module.name.c_str(), pc);
                A[l] = sdivWrap(B[l], C[l]);
            }
            break;
          }
          case MOp::IRem: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < n; ++l) {
                if (C[l] == 0)
                    panic("kernel '%s' @%u: integer remainder by zero",
                          k.module.name.c_str(), pc);
                A[l] = sremWrap(B[l], C[l]);
            }
            break;
          }

          // A sampled workgroup records each global op's addresses
          // before the op runs (a load may overwrite them).
          case MOp::LdBuf:
            if (smp)
                smp->recordLanes(base, static_cast<uint32_t>(n), in.d,
                                 V(in.c));
            loadVec(V(in.a), V(in.c), in.b);
            site_exec[in.d] += n;
            break;
          case MOp::StBuf:
            if (smp)
                smp->recordLanes(base, static_cast<uint32_t>(n), in.d,
                                 V(in.b));
            storeVec(V(in.c), V(in.b), in.a);
            site_exec[in.d] += n;
            break;
          case MOp::LdShared: {
            uint32_t *const A = V(in.a);
            const uint32_t *const ADDR = V(in.b);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t addr = ADDR[l];
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                A[l] = sh[addr];
            }
            ws.sharedAccesses += n;
            break;
          }
          case MOp::StShared: {
            const uint32_t *const ADDR = V(in.a);
            const uint32_t *const S = V(in.b);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t addr = ADDR[l];
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = S[l];
            }
            ws.sharedAccesses += n;
            break;
          }

          case MOp::IAddLd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < n; ++l)
                A[l] = B[l] + C[l];
            if (smp)
                smp->recordLanes(base, static_cast<uint32_t>(n), in.e, A);
            loadVec(V(in.d), A, in.aux);
            site_exec[in.e] += n;
            break;
          }
          case MOp::IAddSt: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < n; ++l)
                A[l] = B[l] + C[l];
            if (smp)
                smp->recordLanes(base, static_cast<uint32_t>(n), in.e, A);
            storeVec(V(in.d), A, in.aux);
            site_exec[in.e] += n;
            break;
          }
          case MOp::IMulAdd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t t = B[l] * C[l];
                A[l] = t;
                D[l] = t + E[l];
            }
            break;
          }
          case MOp::IAddAdd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t t = B[l] + C[l];
                A[l] = t;
                D[l] = t + E[l];
            }
            break;
          }
          case MOp::IAddLdSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t addr = B[l] + C[l];
                A[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                D[l] = sh[addr];
            }
            ws.sharedAccesses += n;
            break;
          }
          case MOp::IAddStSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            const uint32_t *const D = V(in.d);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t addr = B[l] + C[l];
                A[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = D[l];
            }
            ws.sharedAccesses += n;
            break;
          }
          case MOp::MulAddLdSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            uint32_t *const X = V(in.aux);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t t = B[l] * C[l];
                A[l] = t;
                const uint32_t addr = t + E[l];
                D[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                X[l] = sh[addr];
            }
            ws.sharedAccesses += n;
            break;
          }
          case MOp::MulAddStSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const uint32_t *const X = V(in.aux);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t t = B[l] * C[l];
                A[l] = t;
                const uint32_t addr = t + E[l];
                D[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = X[l];
            }
            ws.sharedAccesses += n;
            break;
          }
          case MOp::FMulFAdd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const bool left = in.aux & 1;
            for (size_t l = 0; l < n; ++l) {
                const float t = bitsToF(B[l]) * bitsToF(C[l]);
                A[l] = fToBits(t);
                const float z = bitsToF(E[l]);
                D[l] = fToBits(left ? t + z : z + t);
            }
            break;
          }
          case MOp::IDivRem: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            for (size_t l = 0; l < n; ++l) {
                const uint32_t num = B[l];
                const uint32_t den = C[l];
                if (den == 0)
                    panic("kernel '%s' @%u: integer division by zero",
                          k.module.name.c_str(), pc);
                A[l] = sdivWrap(num, den);
                D[l] = sremWrap(num, den);
            }
            break;
          }

          case MOp::SuperLoop: {
            // Fused counted loop: per-lane trip counts never surface
            // as divergence because every lane reconverges at the exit
            // pc (execSuper charges the per-iteration cycles).
            const SuperOp &sup = mk.supers[in.aux];
            execSuper(sup, pc, base, base + static_cast<uint32_t>(n), ws);
            pc = sup.exitPc;
            ws.laneCycles += static_cast<uint64_t>(cost_from[pc]) * n;
            continue;
          }

          case MOp::Jmp:
            if constexpr (TraceTier) {
                panic("kernel '%s' @%u: branch reached the trace tier",
                      k.module.name.c_str(), pc);
            } else {
                pc = in.a;
                ws.laneCycles += static_cast<uint64_t>(cost_from[pc]) * n;
                continue;
            }
          case MOp::BrTrue:
          case MOp::BrFalse: {
            if constexpr (TraceTier) {
                panic("kernel '%s' @%u: branch reached the trace tier",
                      k.module.name.c_str(), pc);
            } else {
                const uint32_t *const A = V(in.a);
                const uint32_t sense = in.op == MOp::BrTrue ? 1 : 0;
                uint32_t taken = 0;
                for (size_t l = 0; l < n; ++l)
                    taken += (A[l] != 0) == (sense != 0);
                if (taken == n || taken == 0) {
                    pc = taken ? in.b : pc + 1;
                    ws.laneCycles +=
                        static_cast<uint64_t>(cost_from[pc]) * n;
                    continue;
                }
                for (size_t l = 0; l < n; ++l)
                    span_pcs[l] =
                        (A[l] != 0) == (sense != 0) ? in.b : pc + 1;
                return SpanEnd::Split;
            }
          }

          VCB_COMPARE_OPS(VCMPBR)

          case MOp::Barrier:
            std::fill_n(span_pcs, n, pc + 1);
            return SpanEnd::Barrier;
          case MOp::Ret:
            return SpanEnd::Done;

          default:
            if constexpr (TraceTier) {
                panic("kernel '%s' @%u: op %s reached the trace tier",
                      k.module.name.c_str(), pc, mopName(in.op));
            } else {
                // Atomics: lane order is observable, so un-charge the
                // current straight-line run and split the span before
                // the op; the lane-major executor re-charges from this
                // pc and defines the atomic order.
                ws.laneCycles -= static_cast<uint64_t>(cost_from[pc]) * n;
                std::fill_n(span_pcs, n, pc);
                return SpanEnd::Split;
            }
        }
        ++pc;
    }
}

#undef V
#undef VUN
#undef VBIN
#undef VTER
#undef VCMPBR

void
Interpreter::runPhaseBlocks(uint32_t wx, uint32_t wy, uint32_t wz,
                            WorkgroupStats &ws, uint32_t &done_out,
                            uint32_t &barrier_out)
{
    // Each full block of W lanes runs the REST of the phase before the
    // next block starts.  Sequential block order preserves the
    // lane-major executor's global atomic order exactly: a span that
    // reaches an observable-order op (atomic) splits BEFORE executing
    // it, and everything it ran lockstep up to that point is
    // order-unobservable under the data-race-free contract.  A block
    // whose lanes disagree on their pc, or whose span splits, runs
    // lane-major as a block (containing the divergence).
    const uint32_t full = localCount - localCount % kBlockW;
    for (uint32_t base = 0; base < full; base += kBlockW) {
        const uint32_t pc = pcs[base];
        bool agree = true;
        for (uint32_t l = 1; l < kBlockW; ++l)
            agree &= pcs[base + l] == pc;
        const SpanEnd end =
            agree ? runSpan<kBlockW, false>(base, pc, wx, wy, wz, ws)
                  : SpanEnd::Split;
        if (end == SpanEnd::Done)
            done_out += kBlockW;
        else if (end == SpanEnd::Barrier)
            barrier_out += kBlockW;
        else
            runLanes(base, base + kBlockW, wx, wy, wz, ws, done_out,
                     barrier_out);
    }
    // Tail lanes (localCount % W) always run lane-major from their
    // saved pcs, after every full block — the same position they hold
    // in lane-major order.
    if (full < localCount)
        runLanes(full, localCount, wx, wy, wz, ws, done_out, barrier_out);
}

} // namespace vcb::sim
