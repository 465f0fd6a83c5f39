#include "sim/interpreter.h"

#include <atomic>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace vcb::sim {

namespace {

/**
 * Evaluate one hoisted template op (see MicroKernel::templateOps) on
 * the template register file.  Expressions mirror the interpreter
 * handlers exactly so hoisting is bit-invisible.
 */
void
evalTemplateOp(const MicroOp &op, uint32_t *r, const DispatchContext &ctx,
               const spirv::Module &m)
{
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
      case MOp::INot: r[op.a] = ~r[op.b]; break;
      case MOp::INeg:
        r[op.a] = static_cast<uint32_t>(-bitsToS(r[op.b]));
        break;
      case MOp::FAbs: r[op.a] = fToBits(std::fabs(bitsToF(r[op.b]))); break;
      case MOp::FNeg: r[op.a] = fToBits(-bitsToF(r[op.b])); break;
      case MOp::FSqrt:
        r[op.a] = fToBits(std::sqrt(bitsToF(r[op.b])));
        break;
      case MOp::FExp: r[op.a] = fToBits(std::exp(bitsToF(r[op.b]))); break;
      case MOp::FLog: r[op.a] = fToBits(std::log(bitsToF(r[op.b]))); break;
      case MOp::FFloor:
        r[op.a] = fToBits(std::floor(bitsToF(r[op.b])));
        break;
      case MOp::FSin: r[op.a] = fToBits(std::sin(bitsToF(r[op.b]))); break;
      case MOp::FCos: r[op.a] = fToBits(std::cos(bitsToF(r[op.b]))); break;
      case MOp::FFma:
        r[op.a] = fToBits(std::fma(bitsToF(r[op.b]), bitsToF(r[op.c]),
                                   bitsToF(r[op.d])));
        break;
      case MOp::FPow:
        r[op.a] = fToBits(std::pow(bitsToF(r[op.b]), bitsToF(r[op.c])));
        break;
      case MOp::CvtSF:
        r[op.a] = fToBits(static_cast<float>(bitsToS(r[op.b])));
        break;
      case MOp::CvtFS:
        r[op.a] =
            static_cast<uint32_t>(static_cast<int32_t>(bitsToF(r[op.b])));
        break;
      case MOp::Select:
        r[op.a] = r[op.b] ? r[op.c] : r[op.d];
        break;
      case MOp::ConstAlu:
        r[op.a] = op.b;
        r[op.c] =
            evalBin(static_cast<BinKind>(op.aux), r[op.d], r[op.e]);
        break;
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
      default: {
        // Remaining template-pure ops are binary ALU / compares whose
        // MOp order mirrors the interpreter cases; evaluate via the
        // shared evalBin table.
        BinKind kind;
        switch (op.op) {
          case MOp::IAdd: kind = BinKind::IAdd; break;
          case MOp::ISub: kind = BinKind::ISub; break;
          case MOp::IMul: kind = BinKind::IMul; break;
          case MOp::IMin: kind = BinKind::IMin; break;
          case MOp::IMax: kind = BinKind::IMax; break;
          case MOp::IAnd: kind = BinKind::IAnd; break;
          case MOp::IOr:  kind = BinKind::IOr;  break;
          case MOp::IXor: kind = BinKind::IXor; break;
          case MOp::IShl: kind = BinKind::IShl; break;
          case MOp::IShrU: kind = BinKind::IShrU; break;
          case MOp::IShrS: kind = BinKind::IShrS; break;
          case MOp::FAdd: kind = BinKind::FAdd; break;
          case MOp::FSub: kind = BinKind::FSub; break;
          case MOp::FMul: kind = BinKind::FMul; break;
          case MOp::FDiv: kind = BinKind::FDiv; break;
          case MOp::FMin: kind = BinKind::FMin; break;
          case MOp::FMax: kind = BinKind::FMax; break;
          case MOp::IEq: kind = BinKind::IEq; break;
          case MOp::INe: kind = BinKind::INe; break;
          case MOp::ILt: kind = BinKind::ILt; break;
          case MOp::ILe: kind = BinKind::ILe; break;
          case MOp::IGt: kind = BinKind::IGt; break;
          case MOp::IGe: kind = BinKind::IGe; break;
          case MOp::ULt: kind = BinKind::ULt; break;
          case MOp::UGe: kind = BinKind::UGe; break;
          case MOp::FEq: kind = BinKind::FEq; break;
          case MOp::FNe: kind = BinKind::FNe; break;
          case MOp::FLt: kind = BinKind::FLt; break;
          case MOp::FLe: kind = BinKind::FLe; break;
          case MOp::FGt: kind = BinKind::FGt; break;
          case MOp::FGe: kind = BinKind::FGe; break;
          default:
            panic("op %u is not template-pure",
                  static_cast<unsigned>(op.op));
        }
        r[op.a] = evalBin(kind, r[op.b], r[op.c]);
        break;
      }
    }
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

    // A sampler or robust access forces the instrumented tier for this
    // workgroup regardless of the per-kernel selection.
    const ExecTier t = (sampler != nullptr || ctx->robustAccess)
                           ? ExecTier::Instrumented
                           : tier;
    const bool blocked = t == ExecTier::Trace || t == ExecTier::Block;
    ws.tierWorkgroups[static_cast<size_t>(t)] += 1;

    // Phased execution, one executor call per phase: every lane runs
    // from its pc until Ret or Barrier.  At each phase boundary either
    // all lanes returned (done), all stopped at a barrier (release and
    // run the next phase), or the kernel diverged (trap).  Barrier-free
    // kernels complete in a single phase.  On the block/trace tiers,
    // phases whose lanes all resume at one pc run over lane blocks;
    // phases with scattered resume points (and the lane-major /
    // instrumented tiers throughout) go lane-major.
    std::fill(pcs.begin(), pcs.end(), 0u);
    bool uniform = blocked;
    for (;;) {
        uint32_t done = 0;
        uint32_t at_barrier = 0;
        if (t == ExecTier::Instrumented)
            runPhase<true>(0, localCount, wx, wy, wz, ws, sampler, done,
                           at_barrier);
        else if (t == ExecTier::LaneMajor)
            runPhase<false>(0, localCount, wx, wy, wz, ws, nullptr,
                            done, at_barrier);
        else if (uniform && t == ExecTier::Trace)
            runPhaseWg<kBlockW, true>(pcs[0], wx, wy, wz, ws, done,
                                      at_barrier);
        else if (uniform)
            runPhaseWg<kBlockW, false>(pcs[0], wx, wy, wz, ws, done,
                                       at_barrier);
        else
            // Scattered resume points (lanes released from different
            // barriers): per-block containment from the saved pcs.
            runPhaseBlocks<kBlockW>(wx, wy, wz, ws, done, at_barrier);
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
        if (blocked) {
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

/** Fused compare+branch handler: write the flag, branch on sense. */
#define VCB_CMPBR(name, expr)                                             \
    VCB_OP(name) {                                                        \
        const uint32_t x = R(ip->b);                                      \
        const uint32_t y = R(ip->c);                                      \
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

VCB_OP(IAdd) R(ip->a) = R(ip->b) + R(ip->c); NEXT;
VCB_OP(ISub) R(ip->a) = R(ip->b) - R(ip->c); NEXT;
VCB_OP(IMul) R(ip->a) = R(ip->b) * R(ip->c); NEXT;
VCB_OP(IDiv)
    if (R(ip->c) == 0)
        panic("kernel '%s' @%u: integer division by zero",
              k.module.name.c_str(), pcOf());
    R(ip->a) =
        static_cast<uint32_t>(bitsToS(R(ip->b)) / bitsToS(R(ip->c)));
    NEXT;
VCB_OP(IRem)
    if (R(ip->c) == 0)
        panic("kernel '%s' @%u: integer remainder by zero",
              k.module.name.c_str(), pcOf());
    R(ip->a) =
        static_cast<uint32_t>(bitsToS(R(ip->b)) % bitsToS(R(ip->c)));
    NEXT;
VCB_OP(IMin)
    R(ip->a) = static_cast<uint32_t>(
        std::min(bitsToS(R(ip->b)), bitsToS(R(ip->c))));
    NEXT;
VCB_OP(IMax)
    R(ip->a) = static_cast<uint32_t>(
        std::max(bitsToS(R(ip->b)), bitsToS(R(ip->c))));
    NEXT;
VCB_OP(IAnd) R(ip->a) = R(ip->b) & R(ip->c); NEXT;
VCB_OP(IOr)  R(ip->a) = R(ip->b) | R(ip->c); NEXT;
VCB_OP(IXor) R(ip->a) = R(ip->b) ^ R(ip->c); NEXT;
VCB_OP(INot) R(ip->a) = ~R(ip->b); NEXT;
VCB_OP(INeg) R(ip->a) = static_cast<uint32_t>(-bitsToS(R(ip->b))); NEXT;
VCB_OP(IShl) R(ip->a) = R(ip->b) << (R(ip->c) & 31); NEXT;
VCB_OP(IShrU) R(ip->a) = R(ip->b) >> (R(ip->c) & 31); NEXT;
VCB_OP(IShrS)
    R(ip->a) =
        static_cast<uint32_t>(bitsToS(R(ip->b)) >> (R(ip->c) & 31));
    NEXT;

VCB_OP(FAdd) R(ip->a) = fToBits(bitsToF(R(ip->b)) + bitsToF(R(ip->c))); NEXT;
VCB_OP(FSub) R(ip->a) = fToBits(bitsToF(R(ip->b)) - bitsToF(R(ip->c))); NEXT;
VCB_OP(FMul) R(ip->a) = fToBits(bitsToF(R(ip->b)) * bitsToF(R(ip->c))); NEXT;
VCB_OP(FDiv) R(ip->a) = fToBits(bitsToF(R(ip->b)) / bitsToF(R(ip->c))); NEXT;
VCB_OP(FMin)
    R(ip->a) = fToBits(std::fmin(bitsToF(R(ip->b)), bitsToF(R(ip->c))));
    NEXT;
VCB_OP(FMax)
    R(ip->a) = fToBits(std::fmax(bitsToF(R(ip->b)), bitsToF(R(ip->c))));
    NEXT;
VCB_OP(FAbs) R(ip->a) = fToBits(std::fabs(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FNeg) R(ip->a) = fToBits(-bitsToF(R(ip->b))); NEXT;
VCB_OP(FSqrt) R(ip->a) = fToBits(std::sqrt(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FExp) R(ip->a) = fToBits(std::exp(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FLog) R(ip->a) = fToBits(std::log(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FFloor) R(ip->a) = fToBits(std::floor(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FSin) R(ip->a) = fToBits(std::sin(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FCos) R(ip->a) = fToBits(std::cos(bitsToF(R(ip->b)))); NEXT;
VCB_OP(FFma)
    R(ip->a) = fToBits(
        std::fma(bitsToF(R(ip->b)), bitsToF(R(ip->c)), bitsToF(R(ip->d))));
    NEXT;
VCB_OP(FPow)
    R(ip->a) = fToBits(std::pow(bitsToF(R(ip->b)), bitsToF(R(ip->c))));
    NEXT;

VCB_OP(CvtSF) R(ip->a) = fToBits(static_cast<float>(bitsToS(R(ip->b)))); NEXT;
VCB_OP(CvtFS)
    R(ip->a) = static_cast<uint32_t>(static_cast<int32_t>(bitsToF(R(ip->b))));
    NEXT;

VCB_OP(IEq) R(ip->a) = R(ip->b) == R(ip->c); NEXT;
VCB_OP(INe) R(ip->a) = R(ip->b) != R(ip->c); NEXT;
VCB_OP(ILt) R(ip->a) = bitsToS(R(ip->b)) < bitsToS(R(ip->c)); NEXT;
VCB_OP(ILe) R(ip->a) = bitsToS(R(ip->b)) <= bitsToS(R(ip->c)); NEXT;
VCB_OP(IGt) R(ip->a) = bitsToS(R(ip->b)) > bitsToS(R(ip->c)); NEXT;
VCB_OP(IGe) R(ip->a) = bitsToS(R(ip->b)) >= bitsToS(R(ip->c)); NEXT;
VCB_OP(ULt) R(ip->a) = R(ip->b) < R(ip->c); NEXT;
VCB_OP(UGe) R(ip->a) = R(ip->b) >= R(ip->c); NEXT;
VCB_OP(FEq) R(ip->a) = bitsToF(R(ip->b)) == bitsToF(R(ip->c)); NEXT;
VCB_OP(FNe) R(ip->a) = bitsToF(R(ip->b)) != bitsToF(R(ip->c)); NEXT;
VCB_OP(FLt) R(ip->a) = bitsToF(R(ip->b)) < bitsToF(R(ip->c)); NEXT;
VCB_OP(FLe) R(ip->a) = bitsToF(R(ip->b)) <= bitsToF(R(ip->c)); NEXT;
VCB_OP(FGt) R(ip->a) = bitsToF(R(ip->b)) > bitsToF(R(ip->c)); NEXT;
VCB_OP(FGe) R(ip->a) = bitsToF(R(ip->b)) >= bitsToF(R(ip->c)); NEXT;
VCB_OP(Select)
    R(ip->a) = R(ip->b) ? R(ip->c) : R(ip->d);
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

VCB_CMPBR(CmpBrIEq, x == y)
VCB_CMPBR(CmpBrINe, x != y)
VCB_CMPBR(CmpBrILt, bitsToS(x) < bitsToS(y))
VCB_CMPBR(CmpBrILe, bitsToS(x) <= bitsToS(y))
VCB_CMPBR(CmpBrIGt, bitsToS(x) > bitsToS(y))
VCB_CMPBR(CmpBrIGe, bitsToS(x) >= bitsToS(y))
VCB_CMPBR(CmpBrULt, x < y)
VCB_CMPBR(CmpBrUGe, x >= y)
VCB_CMPBR(CmpBrFEq, bitsToF(x) == bitsToF(y))
VCB_CMPBR(CmpBrFNe, bitsToF(x) != bitsToF(y))
VCB_CMPBR(CmpBrFLt, bitsToF(x) < bitsToF(y))
VCB_CMPBR(CmpBrFLe, bitsToF(x) <= bitsToF(y))
VCB_CMPBR(CmpBrFGt, bitsToF(x) > bitsToF(y))
VCB_CMPBR(CmpBrFGe, bitsToF(x) >= bitsToF(y))

VCB_OP(ConstAlu)
    R(ip->a) = ip->b;
    R(ip->c) = evalBin(static_cast<BinKind>(ip->aux), R(ip->d), R(ip->e));
    NEXT;
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
VCB_OP(FMulFSub) {
    const float t = bitsToF(R(ip->b)) * bitsToF(R(ip->c));
    R(ip->a) = fToBits(t);
    const float z = bitsToF(R(ip->e));
    R(ip->d) = fToBits(ip->aux & 1 ? t - z : z - t);
    NEXT;
}
VCB_OP(LdShFMul) {
    uint64_t addr = R(ip->b);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared load [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    const uint32_t v = sh[addr];
    R(ip->a) = v;
    ws.sharedAccesses += 1;
    const float z = bitsToF(R(ip->e));
    R(ip->d) = fToBits(ip->aux & 1 ? bitsToF(v) * z : z * bitsToF(v));
    NEXT;
}
VCB_OP(LdShFSub) {
    uint64_t addr = R(ip->b);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared load [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    const uint32_t v = sh[addr];
    R(ip->a) = v;
    ws.sharedAccesses += 1;
    const float z = bitsToF(R(ip->e));
    R(ip->d) = fToBits(ip->aux & 1 ? bitsToF(v) - z : z - bitsToF(v));
    NEXT;
}
VCB_OP(LdShFDiv) {
    uint64_t addr = R(ip->b);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared load [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    const uint32_t v = sh[addr];
    R(ip->a) = v;
    ws.sharedAccesses += 1;
    const float z = bitsToF(R(ip->e));
    R(ip->d) = fToBits(ip->aux & 1 ? bitsToF(v) / z : z / bitsToF(v));
    NEXT;
}
VCB_OP(FSubStSh) {
    const uint32_t t =
        fToBits(bitsToF(R(ip->b)) - bitsToF(R(ip->c)));
    R(ip->a) = t;
    uint64_t addr = R(ip->d);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared store [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    sh[addr] = t;
    ws.sharedAccesses += 1;
    NEXT;
}
VCB_OP(FDivStSh) {
    const uint32_t t =
        fToBits(bitsToF(R(ip->b)) / bitsToF(R(ip->c)));
    R(ip->a) = t;
    uint64_t addr = R(ip->d);
    VCB_ASSERT(addr < shared_words,
               "kernel '%s' @%u: shared store [%llu] out of bounds "
               "(%llu words)",
               k.module.name.c_str(), pcOf(), (unsigned long long)addr,
               (unsigned long long)shared_words);
    sh[addr] = t;
    ws.sharedAccesses += 1;
    NEXT;
}

VCB_OP(IDivRem) {
    const int32_t den = bitsToS(R(ip->c));
    if (den == 0)
        panic("kernel '%s' @%u: integer division by zero",
              k.module.name.c_str(), pcOf());
    const int32_t num = bitsToS(R(ip->b));
    R(ip->a) = static_cast<uint32_t>(num / den);
    R(ip->d) = static_cast<uint32_t>(num % den);
    NEXT;
}

VCB_OP(Super) {
    // One fused straight-line run (see SuperKind in microop.h).  The
    // recognizer proved the run's scratch registers dead outside it,
    // so intermediates stay in locals; resolve() keeps per-access
    // sampling, robust clamping and site counts exactly as the
    // unfused op sequence produced them.
    const SuperOp &sup = mk.supers[ip->aux];
    switch (sup.kind) {
      case SuperKind::SqDistStep: {
        const uint32_t a1 = R(sup.r[0]) * R(sup.r[1]) + R(sup.r[2]);
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
        const uint32_t a1 = R(sup.r[0]) * R(sup.r[1]) + R(sup.r[2]);
        VCB_ASSERT(a1 < shared_words,
                   "kernel '%s' @%u: shared load [%u] out of bounds "
                   "(%llu words)",
                   k.module.name.c_str(), pcOf(), a1,
                   (unsigned long long)shared_words);
        const uint32_t v1 = sh[a1];
        const uint32_t a2 =
            R(sup.r[6]) + (R(sup.r[3]) * R(sup.r[4]) + R(sup.r[5]));
        VCB_ASSERT(a2 < shared_words,
                   "kernel '%s' @%u: shared load [%u] out of bounds "
                   "(%llu words)",
                   k.module.name.c_str(), pcOf(), a2,
                   (unsigned long long)shared_words);
        const uint32_t v2 = sh[a2];
        R(sup.r[8]) = fToBits(
            std::fma(bitsToF(v1), bitsToF(v2), bitsToF(R(sup.r[7]))));
        R(sup.r[9]) = R(sup.r[10]) + R(sup.r[11]);
        ws.sharedAccesses += 2;
        break;
      }
      case SuperKind::Count:
        break;
    }
    NEXT;
}

VCB_OP(SuperLoop) {
    // Fused counted loop (lowering pass 3.6): run to completion for
    // this lane.  Each iteration charges headCost + bodyCost — the
    // exact costFrom charges the unfused CmpBr/body/Jmp stream pays
    // per trip around the back edge — and the head's flag register
    // receives the final (failing) test's value before the transfer
    // to the exit pc.  The access order per lane is unchanged, so
    // sampling, robust clamping and site counts stay exact.
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
    R(sup.loopFlag) = sup.loopAux;
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
    // run per lane is unobservable.
    //
    // Loop records (sup.loop) run the counted loop to completion
    // ITERATION-major: per trip, every still-active lane executes the
    // body before any lane advances — the lane-contiguous memory
    // order of the op-major executor, which is what keeps strided
    // per-lane walks (kmeans reads column gid of a 64K-point matrix)
    // cache-friendly.  The bodies only load from global/shared
    // memory, so the order difference from the lane-major reference
    // is unobservable; a lane whose condition fails stops updating
    // its own registers, so exited lanes stay exited.  The caller
    // performs the exit transfer.
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
        if (!sup.loop) {
            for (uint32_t l = 0; l < n; ++l)
                body(l);
            site_exec[sup.site[0]] += n;
            site_exec[sup.site[1]] += n;
            break;
        }
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
        for (uint32_t l = 0; l < n; ++l)
            FL[l] = sup.loopAux;
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
        if (!sup.loop) {
            for (uint32_t l = 0; l < n; ++l)
                body(l);
            ws.sharedAccesses += 2ull * n;
            break;
        }
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
        for (uint32_t l = 0; l < n; ++l)
            FL[l] = sup.loopAux;
        ws.sharedAccesses += 2ull * total;
        ws.laneCycles += total * (sup.headCost + sup.bodyCost);
        break;
      }
      case SuperKind::Count:
        break;
    }
}

/** Block lane vector of register x: W contiguous lanes starting at
 *  the current block base (rb points at the block's lane-0 column of
 *  the reg-major file). */
#define BV(x) (rb + static_cast<size_t>(x) * lc)
/** Element-wise binary op over one lane block: compile-time trip
 *  count W over contiguous operands, so the compiler unrolls and
 *  vectorizes.  A may alias B/C only exactly (vector offsets are
 *  multiples of lc), which keeps per-lane semantics. */
#define BBIN(name, expr)                                                  \
    case MOp::name: {                                                     \
        uint32_t *const A = BV(in.a);                                     \
        const uint32_t *const B = BV(in.b);                               \
        const uint32_t *const C = BV(in.c);                               \
        for (uint32_t l = 0; l < W; ++l)                                  \
            A[l] = (expr);                                                \
        break;                                                            \
    }
#define BUN(name, expr)                                                   \
    case MOp::name: {                                                     \
        uint32_t *const A = BV(in.a);                                     \
        const uint32_t *const B = BV(in.b);                               \
        for (uint32_t l = 0; l < W; ++l)                                  \
            A[l] = (expr);                                                \
        break;                                                            \
    }
/** Fused compare+branch: flags written per block lane; a uniform
 *  outcome transfers the whole block, divergence bails only this
 *  block's W lanes to the lane-major executor. */
#define BCMPBR(mop, expr)                                                 \
    case MOp::mop: {                                                      \
        uint32_t *const A = BV(in.a);                                     \
        const uint32_t *const B = BV(in.b);                               \
        const uint32_t *const C = BV(in.c);                               \
        uint32_t taken = 0;                                               \
        const uint32_t sense = in.aux;                                    \
        for (uint32_t l = 0; l < W; ++l) {                                \
            const uint32_t x = B[l];                                      \
            const uint32_t y = C[l];                                      \
            const uint32_t cond = (expr);                                 \
            A[l] = cond;                                                  \
            taken += cond == sense;                                       \
        }                                                                 \
        if (taken == 0 || taken == W) {                                   \
            pc = taken ? in.d : pc + 1;                                   \
            ws.laneCycles +=                                              \
                static_cast<uint64_t>(cost_from[pc]) * W;                 \
            continue;                                                     \
        }                                                                 \
        for (uint32_t l = 0; l < W; ++l)                                  \
            pcs[base + l] = A[l] == sense ? in.d : pc + 1;                \
        runPhase<false>(base, base + W, wx, wy, wz, ws, nullptr, done,    \
                        at_barrier);                                      \
        goto block_done;                                                  \
    }

template <uint32_t W>
void
Interpreter::runPhaseBlocks(uint32_t wx, uint32_t wy, uint32_t wz,
                            WorkgroupStats &ws, uint32_t &done_out,
                            uint32_t &barrier_out)
{
    const CompiledKernel &k = *kernel;
    const MicroKernel &mk = *k.micro;
    const MicroOp *const ops = mk.ops.data();
    const uint32_t *const cost_from = mk.costFrom.data();
    const size_t lc = localCount;
    uint32_t *const regs0 = regs.data();
    const BufferBinding *const bufs = ctx->buffers.data();
    uint64_t *const site_exec = ws.siteExec.data();
    uint32_t *const sh = shared.data();
    const uint64_t shared_words = shared.size();
    const uint32_t lx = k.module.localSize[0];
    const uint32_t ly = k.module.localSize[1];

    uint32_t done = 0;
    uint32_t at_barrier = 0;
    uint32_t pc = 0;

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

    /**
     * One block global load.  Classify the address vector once:
     *  - contiguous (addr[l] == addr[0] + l) and fully in bounds: one
     *    bounds test, one W-word memcpy.  Global words are relaxed
     *    atomics elsewhere; a word-aligned block copy cannot tear
     *    individual words on supported hosts, and the simulator's
     *    data-race-free execution contract already makes concurrent
     *    conflicting writers to these words UB (benign same-value
     *    races, which a copy preserves, excepted).
     *  - uniform (every lane reads one address): one atomic load,
     *    broadcast — kmeans' centroid reads.
     *  - scattered: per-lane bounds checks, then per-lane loads.
     */
    auto loadBlock = [&](uint32_t *A, const uint32_t *ADDR,
                         uint32_t binding) -> void {
        const BufferBinding &buf = bufs[binding];
        const uint32_t a0 = ADDR[0];
        bool contig = true;
        bool unif = true;
        for (uint32_t l = 1; l < W; ++l) {
            contig &= ADDR[l] == a0 + l;
            unif &= ADDR[l] == a0;
        }
        if (contig && static_cast<uint64_t>(a0) + W <= buf.words) {
            std::memcpy(A, buf.data + a0, W * sizeof(uint32_t));
            return;
        }
        if (a0 >= buf.words) [[unlikely]]
            oob(binding, a0, buf.words);
        if (unif) {
            const uint32_t v = std::atomic_ref<uint32_t>(buf.data[a0])
                                   .load(std::memory_order_relaxed);
            for (uint32_t l = 0; l < W; ++l)
                A[l] = v;
            return;
        }
        for (uint32_t l = 1; l < W; ++l)
            if (ADDR[l] >= buf.words) [[unlikely]]
                oob(binding, ADDR[l], buf.words);
        for (uint32_t l = 0; l < W; ++l)
            A[l] = std::atomic_ref<uint32_t>(buf.data[ADDR[l]])
                       .load(std::memory_order_relaxed);
    };

    /** One block global store: contiguous in-bounds addresses become a
     *  single W-word memcpy (see loadBlock for the race argument);
     *  anything else stores per lane in lane order (duplicate
     *  addresses: last lane wins, as lane-major). */
    auto storeBlock = [&](uint32_t binding, const uint32_t *ADDR,
                          const uint32_t *S) -> void {
        const BufferBinding &buf = bufs[binding];
        const uint32_t a0 = ADDR[0];
        bool contig = true;
        for (uint32_t l = 1; l < W; ++l)
            contig &= ADDR[l] == a0 + l;
        if (contig && static_cast<uint64_t>(a0) + W <= buf.words) {
            std::memcpy(buf.data + a0, S, W * sizeof(uint32_t));
            return;
        }
        for (uint32_t l = 0; l < W; ++l)
            if (ADDR[l] >= buf.words) [[unlikely]]
                oob(binding, ADDR[l], buf.words);
        for (uint32_t l = 0; l < W; ++l)
            std::atomic_ref<uint32_t>(buf.data[ADDR[l]])
                .store(S[l], std::memory_order_relaxed);
    };

    /** Shared-memory bounds: one OR-reduced check per block, the slow
     *  per-lane walk only to report the offending lane. */
    auto shCheck = [&](const uint32_t *ADDR, const char *what) -> void {
        uint32_t bad = 0;
        for (uint32_t l = 0; l < W; ++l)
            bad |= static_cast<uint32_t>(ADDR[l] >= shared_words);
        if (bad) [[unlikely]] {
            for (uint32_t l = 0; l < W; ++l)
                if (ADDR[l] >= shared_words)
                    shOob(what, ADDR[l]);
        }
    };

    // Full blocks of W lanes each run the REST of the phase before the
    // next block starts.  Sequential block order preserves the
    // lane-major executor's global atomic order exactly: a block that
    // reaches an observable-order op (atomic) bails to lane-major
    // below BEFORE executing it, and everything the block ran lockstep
    // up to that point is order-unobservable under the data-race-free
    // contract.
    const uint32_t full = static_cast<uint32_t>(lc - lc % W);
    for (uint32_t base = 0; base < full; base += W) {
        uint32_t *const rb = regs0 + base;
        const LaneId *const lid = lids.data() + base;
        // Resume from the per-lane pcs; a block whose lanes disagree
        // runs lane-major as a block (containing the divergence).
        pc = pcs[base];
        bool blk_uniform = true;
        for (uint32_t l = 1; l < W; ++l)
            blk_uniform &= pcs[base + l] == pc;
        if (!blk_uniform) {
            runPhase<false>(base, base + W, wx, wy, wz, ws, nullptr,
                            done, at_barrier);
            continue;
        }
        // Charge the straight-line run for the block up front, as the
        // lane-major executor does per lane at entry.
        ws.laneCycles += static_cast<uint64_t>(cost_from[pc]) * W;
        for (;;) {
            const MicroOp &in = ops[pc];
            switch (in.op) {
              case MOp::Const: {
                uint32_t *const A = BV(in.a);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = in.b;
                break;
              }
              case MOp::Mov: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = B[l];
                break;
              }
              case MOp::LdBuiltin: {
                using spirv::Builtin;
                uint32_t *const A = BV(in.a);
                switch (static_cast<Builtin>(in.aux)) {
                  case Builtin::GlobalIdX:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = wx * lx + lid[l].x;
                    break;
                  case Builtin::GlobalIdY:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = wy * ly + lid[l].y;
                    break;
                  case Builtin::GlobalIdZ:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = wz * k.module.localSize[2] + lid[l].z;
                    break;
                  case Builtin::LocalIdX:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = lid[l].x;
                    break;
                  case Builtin::LocalIdY:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = lid[l].y;
                    break;
                  case Builtin::LocalIdZ:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = lid[l].z;
                    break;
                  case Builtin::LocalLinearId:
                    for (uint32_t l = 0; l < W; ++l)
                        A[l] = base + l;
                    break;
                  case Builtin::GroupIdX: std::fill_n(A, W, wx); break;
                  case Builtin::GroupIdY: std::fill_n(A, W, wy); break;
                  case Builtin::GroupIdZ: std::fill_n(A, W, wz); break;
                  case Builtin::NumGroupsX:
                    std::fill_n(A, W, ctx->groups[0]);
                    break;
                  case Builtin::NumGroupsY:
                    std::fill_n(A, W, ctx->groups[1]);
                    break;
                  case Builtin::NumGroupsZ:
                    std::fill_n(A, W, ctx->groups[2]);
                    break;
                  case Builtin::LocalSizeX: std::fill_n(A, W, lx); break;
                  case Builtin::LocalSizeY: std::fill_n(A, W, ly); break;
                  case Builtin::LocalSizeZ:
                    std::fill_n(A, W, k.module.localSize[2]);
                    break;
                  case Builtin::GlobalSizeX:
                    std::fill_n(A, W, ctx->groups[0] * lx);
                    break;
                  case Builtin::GlobalSizeY:
                    std::fill_n(A, W, ctx->groups[1] * ly);
                    break;
                  case Builtin::GlobalSizeZ:
                    std::fill_n(A, W,
                                ctx->groups[2] * k.module.localSize[2]);
                    break;
                  case Builtin::Count: std::fill_n(A, W, 0u); break;
                }
                break;
              }
              case MOp::LdPush: {
                uint32_t *const A = BV(in.a);
                std::fill_n(A, W, ctx->push[in.b]);
                break;
              }

              BBIN(IAdd, B[l] + C[l])
              BBIN(ISub, B[l] - C[l])
              BBIN(IMul, B[l] * C[l])
              case MOp::IDiv: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                for (uint32_t l = 0; l < W; ++l) {
                    if (C[l] == 0)
                        panic("kernel '%s' @%u: integer division by "
                              "zero",
                              k.module.name.c_str(), pc);
                    A[l] = static_cast<uint32_t>(bitsToS(B[l]) /
                                                 bitsToS(C[l]));
                }
                break;
              }
              case MOp::IRem: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                for (uint32_t l = 0; l < W; ++l) {
                    if (C[l] == 0)
                        panic("kernel '%s' @%u: integer remainder by "
                              "zero",
                              k.module.name.c_str(), pc);
                    A[l] = static_cast<uint32_t>(bitsToS(B[l]) %
                                                 bitsToS(C[l]));
                }
                break;
              }
              BBIN(IMin, static_cast<uint32_t>(
                             std::min(bitsToS(B[l]), bitsToS(C[l]))))
              BBIN(IMax, static_cast<uint32_t>(
                             std::max(bitsToS(B[l]), bitsToS(C[l]))))
              BBIN(IAnd, B[l] & C[l])
              BBIN(IOr, B[l] | C[l])
              BBIN(IXor, B[l] ^ C[l])
              BUN(INot, ~B[l])
              BUN(INeg, static_cast<uint32_t>(-bitsToS(B[l])))
              BBIN(IShl, B[l] << (C[l] & 31))
              BBIN(IShrU, B[l] >> (C[l] & 31))
              BBIN(IShrS,
                   static_cast<uint32_t>(bitsToS(B[l]) >> (C[l] & 31)))

              BBIN(FAdd, fToBits(bitsToF(B[l]) + bitsToF(C[l])))
              BBIN(FSub, fToBits(bitsToF(B[l]) - bitsToF(C[l])))
              BBIN(FMul, fToBits(bitsToF(B[l]) * bitsToF(C[l])))
              BBIN(FDiv, fToBits(bitsToF(B[l]) / bitsToF(C[l])))
              BBIN(FMin,
                   fToBits(std::fmin(bitsToF(B[l]), bitsToF(C[l]))))
              BBIN(FMax,
                   fToBits(std::fmax(bitsToF(B[l]), bitsToF(C[l]))))
              BUN(FAbs, fToBits(std::fabs(bitsToF(B[l]))))
              BUN(FNeg, fToBits(-bitsToF(B[l])))
              BUN(FSqrt, fToBits(std::sqrt(bitsToF(B[l]))))
              BUN(FExp, fToBits(std::exp(bitsToF(B[l]))))
              BUN(FLog, fToBits(std::log(bitsToF(B[l]))))
              BUN(FFloor, fToBits(std::floor(bitsToF(B[l]))))
              BUN(FSin, fToBits(std::sin(bitsToF(B[l]))))
              BUN(FCos, fToBits(std::cos(bitsToF(B[l]))))
              case MOp::FFma: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                const uint32_t *const D = BV(in.d);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = fToBits(std::fma(bitsToF(B[l]),
                                            bitsToF(C[l]),
                                            bitsToF(D[l])));
                break;
              }
              BBIN(FPow, fToBits(std::pow(bitsToF(B[l]), bitsToF(C[l]))))
              BUN(CvtSF, fToBits(static_cast<float>(bitsToS(B[l]))))
              BUN(CvtFS, static_cast<uint32_t>(
                             static_cast<int32_t>(bitsToF(B[l]))))

              BBIN(IEq, B[l] == C[l])
              BBIN(INe, B[l] != C[l])
              BBIN(ILt, bitsToS(B[l]) < bitsToS(C[l]))
              BBIN(ILe, bitsToS(B[l]) <= bitsToS(C[l]))
              BBIN(IGt, bitsToS(B[l]) > bitsToS(C[l]))
              BBIN(IGe, bitsToS(B[l]) >= bitsToS(C[l]))
              BBIN(ULt, B[l] < C[l])
              BBIN(UGe, B[l] >= C[l])
              BBIN(FEq, bitsToF(B[l]) == bitsToF(C[l]))
              BBIN(FNe, bitsToF(B[l]) != bitsToF(C[l]))
              BBIN(FLt, bitsToF(B[l]) < bitsToF(C[l]))
              BBIN(FLe, bitsToF(B[l]) <= bitsToF(C[l]))
              BBIN(FGt, bitsToF(B[l]) > bitsToF(C[l]))
              BBIN(FGe, bitsToF(B[l]) >= bitsToF(C[l]))
              case MOp::Select: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                const uint32_t *const D = BV(in.d);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = B[l] ? C[l] : D[l];
                break;
              }

              case MOp::LdBuf: {
                loadBlock(BV(in.a), BV(in.c), in.b);
                site_exec[in.d] += W;
                break;
              }
              case MOp::StBuf: {
                storeBlock(in.a, BV(in.b), BV(in.c));
                site_exec[in.d] += W;
                break;
              }
              case MOp::LdShared: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const ADDR = BV(in.b);
                shCheck(ADDR, "load");
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = sh[ADDR[l]];
                ws.sharedAccesses += W;
                break;
              }
              case MOp::StShared: {
                const uint32_t *const ADDR = BV(in.a);
                const uint32_t *const S = BV(in.b);
                shCheck(ADDR, "store");
                for (uint32_t l = 0; l < W; ++l)
                    sh[ADDR[l]] = S[l];
                ws.sharedAccesses += W;
                break;
              }

              case MOp::IAddLd: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = B[l] + C[l];
                loadBlock(BV(in.d), A, in.aux);
                site_exec[in.e] += W;
                break;
              }
              case MOp::IAddSt: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = B[l] + C[l];
                storeBlock(in.aux, A, BV(in.d));
                site_exec[in.e] += W;
                break;
              }
              case MOp::IMulAdd: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                for (uint32_t l = 0; l < W; ++l) {
                    const uint32_t t = B[l] * C[l];
                    A[l] = t;
                    D[l] = t + E[l];
                }
                break;
              }
              case MOp::IAddAdd: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                for (uint32_t l = 0; l < W; ++l) {
                    const uint32_t t = B[l] + C[l];
                    A[l] = t;
                    D[l] = t + E[l];
                }
                break;
              }
              case MOp::IAddLdSh: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = B[l] + C[l];
                shCheck(A, "load");
                for (uint32_t l = 0; l < W; ++l)
                    D[l] = sh[A[l]];
                ws.sharedAccesses += W;
                break;
              }
              case MOp::IAddStSh: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                const uint32_t *const D = BV(in.d);
                for (uint32_t l = 0; l < W; ++l)
                    A[l] = B[l] + C[l];
                shCheck(A, "store");
                for (uint32_t l = 0; l < W; ++l)
                    sh[A[l]] = D[l];
                ws.sharedAccesses += W;
                break;
              }
              case MOp::MulAddLdSh: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                uint32_t *const X = BV(in.aux);
                for (uint32_t l = 0; l < W; ++l) {
                    const uint32_t t = B[l] * C[l];
                    A[l] = t;
                    D[l] = t + E[l];
                }
                shCheck(D, "load");
                for (uint32_t l = 0; l < W; ++l)
                    X[l] = sh[D[l]];
                ws.sharedAccesses += W;
                break;
              }
              case MOp::MulAddStSh: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                const uint32_t *const X = BV(in.aux);
                for (uint32_t l = 0; l < W; ++l) {
                    const uint32_t t = B[l] * C[l];
                    A[l] = t;
                    D[l] = t + E[l];
                }
                shCheck(D, "store");
                for (uint32_t l = 0; l < W; ++l)
                    sh[D[l]] = X[l];
                ws.sharedAccesses += W;
                break;
              }
              case MOp::FMulFAdd: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                const bool left = in.aux & 1;
                for (uint32_t l = 0; l < W; ++l) {
                    const float t = bitsToF(B[l]) * bitsToF(C[l]);
                    A[l] = fToBits(t);
                    const float z = bitsToF(E[l]);
                    D[l] = fToBits(left ? t + z : z + t);
                }
                break;
              }
              case MOp::FMulFSub: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                const bool left = in.aux & 1;
                for (uint32_t l = 0; l < W; ++l) {
                    const float t = bitsToF(B[l]) * bitsToF(C[l]);
                    A[l] = fToBits(t);
                    const float z = bitsToF(E[l]);
                    D[l] = fToBits(left ? t - z : z - t);
                }
                break;
              }
              case MOp::LdShFMul:
              case MOp::LdShFSub:
              case MOp::LdShFDiv: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                const bool left = in.aux & 1;
                shCheck(B, "load");
                for (uint32_t l = 0; l < W; ++l) {
                    const uint32_t v = sh[B[l]];
                    A[l] = v;
                    const float fv = bitsToF(v);
                    const float z = bitsToF(E[l]);
                    float res;
                    if (in.op == MOp::LdShFMul)
                        res = left ? fv * z : z * fv;
                    else if (in.op == MOp::LdShFSub)
                        res = left ? fv - z : z - fv;
                    else
                        res = left ? fv / z : z / fv;
                    D[l] = fToBits(res);
                }
                ws.sharedAccesses += W;
                break;
              }
              case MOp::FSubStSh:
              case MOp::FDivStSh: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                const uint32_t *const D = BV(in.d);
                for (uint32_t l = 0; l < W; ++l) {
                    const float x = bitsToF(B[l]);
                    const float y = bitsToF(C[l]);
                    A[l] =
                        fToBits(in.op == MOp::FSubStSh ? x - y : x / y);
                }
                shCheck(D, "store");
                for (uint32_t l = 0; l < W; ++l)
                    sh[D[l]] = A[l];
                ws.sharedAccesses += W;
                break;
              }
              case MOp::IDivRem: {
                uint32_t *const A = BV(in.a);
                const uint32_t *const B = BV(in.b);
                const uint32_t *const C = BV(in.c);
                uint32_t *const D = BV(in.d);
                for (uint32_t l = 0; l < W; ++l) {
                    const int32_t den = bitsToS(C[l]);
                    if (den == 0)
                        panic("kernel '%s' @%u: integer division by "
                              "zero",
                              k.module.name.c_str(), pc);
                    const int32_t num = bitsToS(B[l]);
                    A[l] = static_cast<uint32_t>(num / den);
                    D[l] = static_cast<uint32_t>(num % den);
                }
                break;
              }

              case MOp::Super:
                execSuper(mk.supers[in.aux], pc, base, base + W, ws);
                break;
              case MOp::SuperLoop: {
                // Fused counted loop: all lanes run to completion and
                // reconverge at the exit pc (execSuper charges the
                // per-iteration cycles).
                const SuperOp &sup = mk.supers[in.aux];
                execSuper(sup, pc, base, base + W, ws);
                pc = sup.exitPc;
                ws.laneCycles +=
                    static_cast<uint64_t>(cost_from[pc]) * W;
                continue;
              }

              case MOp::Jmp:
                pc = in.a;
                ws.laneCycles +=
                    static_cast<uint64_t>(cost_from[pc]) * W;
                continue;
              case MOp::BrTrue:
              case MOp::BrFalse: {
                const uint32_t *const A = BV(in.a);
                const uint32_t sense = in.op == MOp::BrTrue ? 1 : 0;
                uint32_t taken = 0;
                for (uint32_t l = 0; l < W; ++l)
                    taken += (A[l] != 0) == (sense != 0);
                if (taken == 0 || taken == W) {
                    pc = taken ? in.b : pc + 1;
                    ws.laneCycles +=
                        static_cast<uint64_t>(cost_from[pc]) * W;
                    continue;
                }
                for (uint32_t l = 0; l < W; ++l)
                    pcs[base + l] =
                        (A[l] != 0) == (sense != 0) ? in.b : pc + 1;
                runPhase<false>(base, base + W, wx, wy, wz, ws,
                                nullptr, done, at_barrier);
                goto block_done;
              }

              BCMPBR(CmpBrIEq, x == y)
              BCMPBR(CmpBrINe, x != y)
              BCMPBR(CmpBrILt, bitsToS(x) < bitsToS(y))
              BCMPBR(CmpBrILe, bitsToS(x) <= bitsToS(y))
              BCMPBR(CmpBrIGt, bitsToS(x) > bitsToS(y))
              BCMPBR(CmpBrIGe, bitsToS(x) >= bitsToS(y))
              BCMPBR(CmpBrULt, x < y)
              BCMPBR(CmpBrUGe, x >= y)
              BCMPBR(CmpBrFEq, bitsToF(x) == bitsToF(y))
              BCMPBR(CmpBrFNe, bitsToF(x) != bitsToF(y))
              BCMPBR(CmpBrFLt, bitsToF(x) < bitsToF(y))
              BCMPBR(CmpBrFLe, bitsToF(x) <= bitsToF(y))
              BCMPBR(CmpBrFGt, bitsToF(x) > bitsToF(y))
              BCMPBR(CmpBrFGe, bitsToF(x) >= bitsToF(y))

              case MOp::ConstAlu: {
                uint32_t *const A = BV(in.a);
                uint32_t *const C2 = BV(in.c);
                const uint32_t *const D = BV(in.d);
                const uint32_t *const E = BV(in.e);
                const BinKind kind = static_cast<BinKind>(in.aux);
                std::fill_n(A, W, in.b);
                for (uint32_t l = 0; l < W; ++l)
                    C2[l] = evalBin(kind, D[l], E[l]);
                break;
              }

              case MOp::Barrier:
                for (uint32_t l = 0; l < W; ++l)
                    pcs[base + l] = pc + 1;
                at_barrier += W;
                goto block_done;
              case MOp::Ret:
                done += W;
                goto block_done;

              default:
                // Atomics: lane order is observable, so un-charge the
                // current straight-line run and hand only THIS block's
                // lanes to the lane-major executor from this pc.
                // Later blocks keep running lockstep; the sequential
                // block order keeps the global atomic order identical
                // to lane-major.
                ws.laneCycles -=
                    static_cast<uint64_t>(cost_from[pc]) * W;
                for (uint32_t l = 0; l < W; ++l)
                    pcs[base + l] = pc;
                runPhase<false>(base, base + W, wx, wy, wz, ws,
                                nullptr, done, at_barrier);
                goto block_done;
            }
            ++pc;
        }
    block_done:;
    }

    // Tail lanes (localCount % W) always run lane-major from their
    // saved pcs, after every full block — the same position they hold
    // in lane-major order.
    if (full < lc) {
        runPhase<false>(full, static_cast<uint32_t>(lc), wx, wy, wz, ws,
                        nullptr, done, at_barrier);
    }
    done_out += done;
    barrier_out += at_barrier;
}

#undef BV
#undef BBIN
#undef BUN
#undef BCMPBR

/** Lane vector of register x (contiguous, reg-major file). */
#define V(x) (regs0 + static_cast<size_t>(x) * lc)
/** Element-wise binary op handler for the whole-workgroup op-major
 *  executor.  A may alias B/C only exactly (vector offsets are
 *  multiples of lc), which keeps the per-lane semantics of the
 *  lane-major path. */
#define VBIN(name, expr)                                                  \
    case MOp::name: {                                                     \
        uint32_t *const A = V(in.a);                                      \
        const uint32_t *const B = V(in.b);                                \
        const uint32_t *const C = V(in.c);                                \
        for (size_t l = 0; l < lc; ++l)                                   \
            A[l] = (expr);                                                \
        break;                                                            \
    }
#define VUN(name, expr)                                                   \
    case MOp::name: {                                                     \
        uint32_t *const A = V(in.a);                                      \
        const uint32_t *const B = V(in.b);                                \
        for (size_t l = 0; l < lc; ++l)                                   \
            A[l] = (expr);                                                \
        break;                                                            \
    }
/** Fused compare+branch: flags written per lane, then the uniform /
 *  divergent decision.  Divergence writes every lane's resume pc and
 *  hands the rest of the phase to the lane-block continuation, which
 *  contains the split at W-lane granularity.  The trace tier is only
 *  selected for branch-free kernels, so there the whole handler
 *  compiles down to a guard. */
#define VCMPBR(mop, expr)                                                 \
    case MOp::mop: {                                                      \
        if constexpr (TraceTier) {                                        \
            panic("kernel '%s' @%u: branch reached the trace tier",       \
                  k.module.name.c_str(), pc);                             \
        } else {                                                          \
            uint32_t *const A = V(in.a);                                  \
            const uint32_t *const B = V(in.b);                            \
            const uint32_t *const C = V(in.c);                            \
            uint32_t taken = 0;                                           \
            const uint32_t sense = in.aux;                                \
            for (size_t l = 0; l < lc; ++l) {                             \
                const uint32_t x = B[l];                                  \
                const uint32_t y = C[l];                                  \
                const uint32_t cond = (expr);                             \
                A[l] = cond;                                              \
                taken += cond == sense;                                   \
            }                                                             \
            if (taken == lc || taken == 0) {                              \
                pc = taken ? in.d : pc + 1;                               \
                ws.laneCycles +=                                          \
                    static_cast<uint64_t>(cost_from[pc]) * lc;            \
                continue;                                                 \
            }                                                             \
            for (size_t l = 0; l < lc; ++l)                               \
                pcs[l] = A[l] == sense ? in.d : pc + 1;                   \
            runPhaseBlocks<W>(wx, wy, wz, ws, done_out, barrier_out);     \
            return;                                                       \
        }                                                                 \
    }

template <uint32_t W, bool TraceTier>
void
Interpreter::runPhaseWg(uint32_t start_pc, uint32_t wx, uint32_t wy,
                        uint32_t wz, WorkgroupStats &ws,
                        uint32_t &done_out, uint32_t &barrier_out)
{
    const CompiledKernel &k = *kernel;
    const MicroKernel &mk = *k.micro;
    const MicroOp *const ops = mk.ops.data();
    const uint32_t *const cost_from = mk.costFrom.data();
    const size_t lc = localCount;
    uint32_t *const regs0 = regs.data();
    const BufferBinding *const bufs = ctx->buffers.data();
    uint64_t *const site_exec = ws.siteExec.data();
    uint32_t *const sh = shared.data();
    const uint64_t shared_words = shared.size();
    const uint32_t lx = k.module.localSize[0];
    const uint32_t ly = k.module.localSize[1];

    uint32_t pc = start_pc;
    // Charge the whole straight-line run for every lane up front, as
    // the lane-major executor does per lane at entry.
    ws.laneCycles += static_cast<uint64_t>(cost_from[pc]) * lc;

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

    // W-blocked global-memory fast paths.  A block whose addresses are
    // contiguous takes one bounds test and one memcpy (word-aligned
    // word copies cannot tear, and the data-race-free contract every
    // programming model requires makes the non-atomic copy
    // unobservable); a block loading one uniform address takes a
    // single load.  Anything else falls back to the per-lane guarded
    // loop, which also reproduces the lane-major executor's
    // first-offending-lane panic on out-of-bounds access.
    auto loadVec = [&](uint32_t *A, const uint32_t *ADDR,
                       const BufferBinding &buf, uint32_t binding) {
        size_t l = 0;
        for (; l + W <= lc; l += W) {
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
        for (; l < lc; ++l) {
            const uint32_t addr = ADDR[l];
            if (addr >= buf.words) [[unlikely]]
                oob(binding, addr, buf.words);
            A[l] = std::atomic_ref<uint32_t>(buf.data[addr])
                       .load(std::memory_order_relaxed);
        }
    };
    auto storeVec = [&](const uint32_t *S, const uint32_t *ADDR,
                        const BufferBinding &buf, uint32_t binding) {
        size_t l = 0;
        for (; l + W <= lc; l += W) {
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
        for (; l < lc; ++l) {
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
            std::fill_n(V(in.a), lc, in.b);
            break;
          case MOp::Mov:
            std::copy_n(V(in.b), lc, V(in.a));
            break;
          case MOp::LdBuiltin: {
            using spirv::Builtin;
            uint32_t *const A = V(in.a);
            const LaneId *const lid = lids.data();
            switch (static_cast<Builtin>(in.aux)) {
              case Builtin::GlobalIdX:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = wx * lx + lid[l].x;
                break;
              case Builtin::GlobalIdY:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = wy * ly + lid[l].y;
                break;
              case Builtin::GlobalIdZ:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = wz * k.module.localSize[2] + lid[l].z;
                break;
              case Builtin::LocalIdX:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = lid[l].x;
                break;
              case Builtin::LocalIdY:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = lid[l].y;
                break;
              case Builtin::LocalIdZ:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = lid[l].z;
                break;
              case Builtin::LocalLinearId:
                for (size_t l = 0; l < lc; ++l)
                    A[l] = static_cast<uint32_t>(l);
                break;
              case Builtin::GroupIdX: std::fill_n(A, lc, wx); break;
              case Builtin::GroupIdY: std::fill_n(A, lc, wy); break;
              case Builtin::GroupIdZ: std::fill_n(A, lc, wz); break;
              case Builtin::NumGroupsX:
                std::fill_n(A, lc, ctx->groups[0]);
                break;
              case Builtin::NumGroupsY:
                std::fill_n(A, lc, ctx->groups[1]);
                break;
              case Builtin::NumGroupsZ:
                std::fill_n(A, lc, ctx->groups[2]);
                break;
              case Builtin::LocalSizeX: std::fill_n(A, lc, lx); break;
              case Builtin::LocalSizeY: std::fill_n(A, lc, ly); break;
              case Builtin::LocalSizeZ:
                std::fill_n(A, lc, k.module.localSize[2]);
                break;
              case Builtin::GlobalSizeX:
                std::fill_n(A, lc, ctx->groups[0] * lx);
                break;
              case Builtin::GlobalSizeY:
                std::fill_n(A, lc, ctx->groups[1] * ly);
                break;
              case Builtin::GlobalSizeZ:
                std::fill_n(A, lc,
                            ctx->groups[2] * k.module.localSize[2]);
                break;
              case Builtin::Count: std::fill_n(A, lc, 0u); break;
            }
            break;
          }
          case MOp::LdPush:
            std::fill_n(V(in.a), lc, ctx->push[in.b]);
            break;

          VBIN(IAdd, B[l] + C[l])
          VBIN(ISub, B[l] - C[l])
          VBIN(IMul, B[l] * C[l])
          case MOp::IDiv: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < lc; ++l) {
                if (C[l] == 0)
                    panic("kernel '%s' @%u: integer division by zero",
                          k.module.name.c_str(), pc);
                A[l] = static_cast<uint32_t>(bitsToS(B[l]) /
                                             bitsToS(C[l]));
            }
            break;
          }
          case MOp::IRem: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < lc; ++l) {
                if (C[l] == 0)
                    panic("kernel '%s' @%u: integer remainder by zero",
                          k.module.name.c_str(), pc);
                A[l] = static_cast<uint32_t>(bitsToS(B[l]) %
                                             bitsToS(C[l]));
            }
            break;
          }
          VBIN(IMin, static_cast<uint32_t>(
                         std::min(bitsToS(B[l]), bitsToS(C[l]))))
          VBIN(IMax, static_cast<uint32_t>(
                         std::max(bitsToS(B[l]), bitsToS(C[l]))))
          VBIN(IAnd, B[l] & C[l])
          VBIN(IOr, B[l] | C[l])
          VBIN(IXor, B[l] ^ C[l])
          VUN(INot, ~B[l])
          VUN(INeg, static_cast<uint32_t>(-bitsToS(B[l])))
          VBIN(IShl, B[l] << (C[l] & 31))
          VBIN(IShrU, B[l] >> (C[l] & 31))
          VBIN(IShrS,
               static_cast<uint32_t>(bitsToS(B[l]) >> (C[l] & 31)))

          VBIN(FAdd, fToBits(bitsToF(B[l]) + bitsToF(C[l])))
          VBIN(FSub, fToBits(bitsToF(B[l]) - bitsToF(C[l])))
          VBIN(FMul, fToBits(bitsToF(B[l]) * bitsToF(C[l])))
          VBIN(FDiv, fToBits(bitsToF(B[l]) / bitsToF(C[l])))
          VBIN(FMin, fToBits(std::fmin(bitsToF(B[l]), bitsToF(C[l]))))
          VBIN(FMax, fToBits(std::fmax(bitsToF(B[l]), bitsToF(C[l]))))
          VUN(FAbs, fToBits(std::fabs(bitsToF(B[l]))))
          VUN(FNeg, fToBits(-bitsToF(B[l])))
          VUN(FSqrt, fToBits(std::sqrt(bitsToF(B[l]))))
          VUN(FExp, fToBits(std::exp(bitsToF(B[l]))))
          VUN(FLog, fToBits(std::log(bitsToF(B[l]))))
          VUN(FFloor, fToBits(std::floor(bitsToF(B[l]))))
          VUN(FSin, fToBits(std::sin(bitsToF(B[l]))))
          VUN(FCos, fToBits(std::cos(bitsToF(B[l]))))
          case MOp::FFma: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            const uint32_t *const D = V(in.d);
            for (size_t l = 0; l < lc; ++l)
                A[l] = fToBits(std::fma(bitsToF(B[l]), bitsToF(C[l]),
                                        bitsToF(D[l])));
            break;
          }
          VBIN(FPow, fToBits(std::pow(bitsToF(B[l]), bitsToF(C[l]))))
          VUN(CvtSF, fToBits(static_cast<float>(bitsToS(B[l]))))
          VUN(CvtFS, static_cast<uint32_t>(
                         static_cast<int32_t>(bitsToF(B[l]))))

          VBIN(IEq, B[l] == C[l])
          VBIN(INe, B[l] != C[l])
          VBIN(ILt, bitsToS(B[l]) < bitsToS(C[l]))
          VBIN(ILe, bitsToS(B[l]) <= bitsToS(C[l]))
          VBIN(IGt, bitsToS(B[l]) > bitsToS(C[l]))
          VBIN(IGe, bitsToS(B[l]) >= bitsToS(C[l]))
          VBIN(ULt, B[l] < C[l])
          VBIN(UGe, B[l] >= C[l])
          VBIN(FEq, bitsToF(B[l]) == bitsToF(C[l]))
          VBIN(FNe, bitsToF(B[l]) != bitsToF(C[l]))
          VBIN(FLt, bitsToF(B[l]) < bitsToF(C[l]))
          VBIN(FLe, bitsToF(B[l]) <= bitsToF(C[l]))
          VBIN(FGt, bitsToF(B[l]) > bitsToF(C[l]))
          VBIN(FGe, bitsToF(B[l]) >= bitsToF(C[l]))
          case MOp::Select: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            const uint32_t *const D = V(in.d);
            for (size_t l = 0; l < lc; ++l)
                A[l] = B[l] ? C[l] : D[l];
            break;
          }

          case MOp::LdBuf:
            loadVec(V(in.a), V(in.c), bufs[in.b], in.b);
            site_exec[in.d] += lc;
            break;
          case MOp::StBuf:
            storeVec(V(in.c), V(in.b), bufs[in.a], in.a);
            site_exec[in.d] += lc;
            break;
          case MOp::LdShared: {
            uint32_t *const A = V(in.a);
            const uint32_t *const ADDR = V(in.b);
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t addr = ADDR[l];
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                A[l] = sh[addr];
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::StShared: {
            const uint32_t *const ADDR = V(in.a);
            const uint32_t *const S = V(in.b);
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t addr = ADDR[l];
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = S[l];
            }
            ws.sharedAccesses += lc;
            break;
          }

          case MOp::IAddLd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < lc; ++l)
                A[l] = B[l] + C[l];
            loadVec(V(in.d), A, bufs[in.aux], in.aux);
            site_exec[in.e] += lc;
            break;
          }
          case MOp::IAddSt: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            for (size_t l = 0; l < lc; ++l)
                A[l] = B[l] + C[l];
            storeVec(V(in.d), A, bufs[in.aux], in.aux);
            site_exec[in.e] += lc;
            break;
          }
          case MOp::IMulAdd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            for (size_t l = 0; l < lc; ++l) {
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
            for (size_t l = 0; l < lc; ++l) {
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
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t addr = B[l] + C[l];
                A[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                D[l] = sh[addr];
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::IAddStSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            const uint32_t *const D = V(in.d);
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t addr = B[l] + C[l];
                A[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = D[l];
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::MulAddLdSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            uint32_t *const X = V(in.aux);
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t t = B[l] * C[l];
                A[l] = t;
                const uint32_t addr = t + E[l];
                D[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                X[l] = sh[addr];
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::MulAddStSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const uint32_t *const X = V(in.aux);
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t t = B[l] * C[l];
                A[l] = t;
                const uint32_t addr = t + E[l];
                D[l] = addr;
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = X[l];
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::FMulFAdd: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const bool left = in.aux & 1;
            for (size_t l = 0; l < lc; ++l) {
                const float t = bitsToF(B[l]) * bitsToF(C[l]);
                A[l] = fToBits(t);
                const float z = bitsToF(E[l]);
                D[l] = fToBits(left ? t + z : z + t);
            }
            break;
          }
          case MOp::FMulFSub: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const bool left = in.aux & 1;
            for (size_t l = 0; l < lc; ++l) {
                const float t = bitsToF(B[l]) * bitsToF(C[l]);
                A[l] = fToBits(t);
                const float z = bitsToF(E[l]);
                D[l] = fToBits(left ? t - z : z - t);
            }
            break;
          }
          case MOp::LdShFMul:
          case MOp::LdShFSub:
          case MOp::LdShFDiv: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const bool left = in.aux & 1;
            for (size_t l = 0; l < lc; ++l) {
                const uint32_t addr = B[l];
                if (addr >= shared_words) [[unlikely]]
                    shOob("load", addr);
                const uint32_t v = sh[addr];
                A[l] = v;
                const float fv = bitsToF(v);
                const float z = bitsToF(E[l]);
                float res;
                if (in.op == MOp::LdShFMul)
                    res = left ? fv * z : z * fv;
                else if (in.op == MOp::LdShFSub)
                    res = left ? fv - z : z - fv;
                else
                    res = left ? fv / z : z / fv;
                D[l] = fToBits(res);
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::FSubStSh:
          case MOp::FDivStSh: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            const uint32_t *const D = V(in.d);
            for (size_t l = 0; l < lc; ++l) {
                const float x = bitsToF(B[l]);
                const float y = bitsToF(C[l]);
                const uint32_t t =
                    fToBits(in.op == MOp::FSubStSh ? x - y : x / y);
                A[l] = t;
                const uint32_t addr = D[l];
                if (addr >= shared_words) [[unlikely]]
                    shOob("store", addr);
                sh[addr] = t;
            }
            ws.sharedAccesses += lc;
            break;
          }
          case MOp::IDivRem: {
            uint32_t *const A = V(in.a);
            const uint32_t *const B = V(in.b);
            const uint32_t *const C = V(in.c);
            uint32_t *const D = V(in.d);
            for (size_t l = 0; l < lc; ++l) {
                const int32_t den = bitsToS(C[l]);
                if (den == 0)
                    panic("kernel '%s' @%u: integer division by zero",
                          k.module.name.c_str(), pc);
                const int32_t num = bitsToS(B[l]);
                A[l] = static_cast<uint32_t>(num / den);
                D[l] = static_cast<uint32_t>(num % den);
            }
            break;
          }

          case MOp::Super:
            // Whole-workgroup fused run; one dispatch covers what
            // used to be six per-op passes over the lane vectors.
            execSuper(mk.supers[in.aux], pc, 0,
                      static_cast<uint32_t>(lc), ws);
            break;
          case MOp::SuperLoop: {
            // Fused counted loop: one dispatch covers the whole loop
            // nest level — per-lane trip counts never surface as
            // divergence because every lane reconverges at the exit
            // pc (execSuper charges the per-iteration cycles).
            const SuperOp &sup = mk.supers[in.aux];
            execSuper(sup, pc, 0, static_cast<uint32_t>(lc), ws);
            pc = sup.exitPc;
            ws.laneCycles += static_cast<uint64_t>(cost_from[pc]) * lc;
            continue;
          }

          case MOp::Jmp:
            if constexpr (TraceTier) {
                panic("kernel '%s' @%u: branch reached the trace tier",
                      k.module.name.c_str(), pc);
            } else {
                pc = in.a;
                ws.laneCycles +=
                    static_cast<uint64_t>(cost_from[pc]) * lc;
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
                for (size_t l = 0; l < lc; ++l)
                    taken += (A[l] != 0) == (sense != 0);
                if (taken == lc || taken == 0) {
                    pc = taken ? in.b : pc + 1;
                    ws.laneCycles +=
                        static_cast<uint64_t>(cost_from[pc]) * lc;
                    continue;
                }
                for (size_t l = 0; l < lc; ++l)
                    pcs[l] = (A[l] != 0) == (sense != 0) ? in.b : pc + 1;
                runPhaseBlocks<W>(wx, wy, wz, ws, done_out, barrier_out);
                return;
            }
          }

          VCMPBR(CmpBrIEq, x == y)
          VCMPBR(CmpBrINe, x != y)
          VCMPBR(CmpBrILt, bitsToS(x) < bitsToS(y))
          VCMPBR(CmpBrILe, bitsToS(x) <= bitsToS(y))
          VCMPBR(CmpBrIGt, bitsToS(x) > bitsToS(y))
          VCMPBR(CmpBrIGe, bitsToS(x) >= bitsToS(y))
          VCMPBR(CmpBrULt, x < y)
          VCMPBR(CmpBrUGe, x >= y)
          VCMPBR(CmpBrFEq, bitsToF(x) == bitsToF(y))
          VCMPBR(CmpBrFNe, bitsToF(x) != bitsToF(y))
          VCMPBR(CmpBrFLt, bitsToF(x) < bitsToF(y))
          VCMPBR(CmpBrFLe, bitsToF(x) <= bitsToF(y))
          VCMPBR(CmpBrFGt, bitsToF(x) > bitsToF(y))
          VCMPBR(CmpBrFGe, bitsToF(x) >= bitsToF(y))

          case MOp::ConstAlu: {
            uint32_t *const A = V(in.a);
            uint32_t *const C2 = V(in.c);
            const uint32_t *const D = V(in.d);
            const uint32_t *const E = V(in.e);
            const BinKind kind = static_cast<BinKind>(in.aux);
            std::fill_n(A, lc, in.b);
            for (size_t l = 0; l < lc; ++l)
                C2[l] = evalBin(kind, D[l], E[l]);
            break;
          }

          case MOp::Barrier:
            std::fill(pcs.begin(), pcs.end(), pc + 1);
            barrier_out += static_cast<uint32_t>(lc);
            return;
          case MOp::Ret:
            done_out += static_cast<uint32_t>(lc);
            return;

          default:
            if constexpr (TraceTier) {
                panic("kernel '%s' @%u: op %s reached the trace tier",
                      k.module.name.c_str(), pc, mopName(in.op));
            } else {
                // Atomics: every lane is at this pc, so lane order is
                // fully observable — un-charge the straight-line run
                // and hand the rest of the phase to the lane-major
                // executor, which re-charges from this pc and defines
                // the atomic order.
                ws.laneCycles -=
                    static_cast<uint64_t>(cost_from[pc]) * lc;
                std::fill(pcs.begin(), pcs.end(), pc);
                runPhase<false>(0, static_cast<uint32_t>(lc), wx, wy,
                                wz, ws, nullptr, done_out, barrier_out);
                return;
            }
        }
        ++pc;
    }
}

#undef V
#undef VBIN
#undef VUN
#undef VCMPBR

} // namespace vcb::sim
