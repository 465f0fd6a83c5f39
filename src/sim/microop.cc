#include "sim/microop.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"
#include "sim/kernel.h"

namespace vcb::sim {

using spirv::Insn;
using spirv::Op;
using spirv::OperandKind;

uint8_t
opCost(Op op)
{
    switch (op) {
      case Op::Nop:
      case Op::Ret:
        return 0;
      case Op::IMul:
        return 2;
      case Op::IDiv:
      case Op::IRem:
        return 12;
      case Op::FDiv:
      case Op::FSqrt:
        return 8;
      case Op::FExp:
      case Op::FLog:
      case Op::FSin:
      case Op::FCos:
        return 16;
      case Op::FPow:
        return 24;
      case Op::LdBuf:
      case Op::StBuf:
        return 2;
      case Op::AtomIAdd:
      case Op::AtomIMin:
      case Op::AtomIMax:
      case Op::AtomIOr:
        return 4;
      case Op::Barrier:
        return 2;
      default:
        return 1;
    }
}

namespace {

/** Map a source op to the fused-executor BinKind.  Covers exactly the
 *  (DstReg, SrcReg, SrcReg) binary ops whose evaluation evalBin()
 *  reproduces bit-identically; trapping ops (IDiv/IRem) and ternary
 *  ops stay unfused. */
bool
binKindOf(Op op, BinKind *out)
{
    switch (op) {
      case Op::IAdd: *out = BinKind::IAdd; return true;
      case Op::ISub: *out = BinKind::ISub; return true;
      case Op::IMul: *out = BinKind::IMul; return true;
      case Op::IMin: *out = BinKind::IMin; return true;
      case Op::IMax: *out = BinKind::IMax; return true;
      case Op::IAnd: *out = BinKind::IAnd; return true;
      case Op::IOr:  *out = BinKind::IOr;  return true;
      case Op::IXor: *out = BinKind::IXor; return true;
      case Op::IShl: *out = BinKind::IShl; return true;
      case Op::IShrU: *out = BinKind::IShrU; return true;
      case Op::IShrS: *out = BinKind::IShrS; return true;
      case Op::FAdd: *out = BinKind::FAdd; return true;
      case Op::FSub: *out = BinKind::FSub; return true;
      case Op::FMul: *out = BinKind::FMul; return true;
      case Op::FDiv: *out = BinKind::FDiv; return true;
      case Op::FMin: *out = BinKind::FMin; return true;
      case Op::FMax: *out = BinKind::FMax; return true;
      case Op::IEq: *out = BinKind::IEq; return true;
      case Op::INe: *out = BinKind::INe; return true;
      case Op::ILt: *out = BinKind::ILt; return true;
      case Op::ILe: *out = BinKind::ILe; return true;
      case Op::IGt: *out = BinKind::IGt; return true;
      case Op::IGe: *out = BinKind::IGe; return true;
      case Op::ULt: *out = BinKind::ULt; return true;
      case Op::UGe: *out = BinKind::UGe; return true;
      case Op::FEq: *out = BinKind::FEq; return true;
      case Op::FNe: *out = BinKind::FNe; return true;
      case Op::FLt: *out = BinKind::FLt; return true;
      case Op::FLe: *out = BinKind::FLe; return true;
      case Op::FGt: *out = BinKind::FGt; return true;
      case Op::FGe: *out = BinKind::FGe; return true;
      default:
        return false;
    }
}

bool
isCompare(Op op, BinKind *out)
{
    return op >= Op::IEq && op <= Op::FGe && binKindOf(op, out);
}

bool
isCmpBr(MOp op)
{
    return op >= MOp::CmpBrIEq && op <= MOp::CmpBrFGe;
}

bool
isTerminator(MOp op)
{
    switch (op) {
      case MOp::Jmp:
      case MOp::BrTrue:
      case MOp::BrFalse:
      case MOp::SuperLoop: // ends with a transfer to its exit pc
      case MOp::Barrier:
      case MOp::Ret:
        return true;
      default:
        return isCmpBr(op);
    }
}

/**
 * Forward must-analysis: at every reachable instruction, is each read
 * register definitely assigned on all paths from entry?  Meet is set
 * intersection; unvisited blocks start at top (all registers).  The
 * validator's guarantees (labels in range, terminal Ret/Br) make all
 * successor indices valid.  Barriers are plain fall-throughs here:
 * registers persist across barrier phases within a workgroup.
 */
bool
provesWriteBeforeRead(const CompiledKernel &k)
{
    const std::vector<Insn> &insns = k.insns;
    const size_t n = insns.size();
    const uint32_t reg_count = k.module.regCount;
    if (n == 0)
        return false;
    const size_t words = (reg_count + 63) / 64;

    std::vector<uint64_t> in(n * words, ~0ull);
    std::vector<uint8_t> reached(n, 0);
    std::fill(in.begin(), in.begin() + words, 0ull);
    reached[0] = 1;

    std::vector<uint32_t> work = {0};
    std::vector<uint64_t> out(words);
    while (!work.empty()) {
        uint32_t pc = work.back();
        work.pop_back();
        const uint64_t *in_pc = in.data() + size_t(pc) * words;
        std::copy(in_pc, in_pc + words, out.begin());

        const Insn &ins = insns[pc];
        const spirv::OpInfo &info = spirv::opInfo(ins.op);
        const uint32_t operands[4] = {ins.a, ins.b, ins.c, ins.d};
        for (uint32_t s = 0; s < info.numOperands; ++s) {
            uint32_t r = operands[s];
            if (info.kinds[s] == OperandKind::SrcReg &&
                !(out[r / 64] >> (r % 64) & 1))
                return false; // read may observe the zero-fill
        }
        for (uint32_t s = 0; s < info.numOperands; ++s) {
            uint32_t r = operands[s];
            if (info.kinds[s] == OperandKind::DstReg)
                out[r / 64] |= 1ull << (r % 64);
        }

        uint32_t succ[2];
        int ns = 0;
        switch (ins.op) {
          case Op::Br:
            succ[ns++] = ins.a;
            break;
          case Op::BrTrue:
          case Op::BrFalse:
            succ[ns++] = ins.b;
            succ[ns++] = pc + 1;
            break;
          case Op::Ret:
            break;
          default:
            succ[ns++] = pc + 1;
            break;
        }
        for (int i = 0; i < ns; ++i) {
            uint32_t s = succ[i];
            VCB_ASSERT(s < n, "kernel '%s': successor %u out of range",
                       k.module.name.c_str(), s);
            uint64_t *in_s = in.data() + size_t(s) * words;
            bool changed = false;
            if (!reached[s]) {
                reached[s] = 1;
                std::copy(out.begin(), out.end(), in_s);
                changed = true;
            } else {
                for (size_t w = 0; w < words; ++w) {
                    uint64_t nv = in_s[w] & out[w];
                    if (nv != in_s[w]) {
                        in_s[w] = nv;
                        changed = true;
                    }
                }
            }
            if (changed)
                work.push_back(s);
        }
    }
    return true;
}

/** Apply fn to every register a micro-op writes. */
template <typename Fn>
void
forEachDst(const MicroOp &op, Fn fn)
{
    switch (op.op) {
      case MOp::StBuf:
      case MOp::StShared:
      case MOp::Jmp:
      case MOp::BrTrue:
      case MOp::BrFalse:
      case MOp::Barrier:
      case MOp::Ret:
        break;
      case MOp::ConstAlu:
        fn(op.a);
        fn(op.c);
        break;
      case MOp::IMulAdd:
      case MOp::IAddAdd:
      case MOp::IAddLd:
      case MOp::IAddLdSh:
      case MOp::MulAddStSh:
      case MOp::FMulFAdd:
      case MOp::FMulFSub:
      case MOp::LdShFMul:
      case MOp::LdShFSub:
      case MOp::LdShFDiv:
      case MOp::IDivRem:
        fn(op.a);
        fn(op.d);
        break;
      case MOp::MulAddLdSh:
        fn(op.a);
        fn(op.d);
        fn(op.aux);
        break;
      case MOp::Super:
      case MOp::SuperLoop:
        // Superops are formed after every forEachDst consumer runs;
        // their writes live in the side table, unreachable from here.
        VCB_ASSERT(false, "forEachDst on a superop");
        break;
      default:
        // Everything else (ALU, compares, loads, atomics, CmpBr*,
        // IAddSt/IAddStSh address write) writes exactly op.a.
        fn(op.a);
        break;
    }
}

/** Apply fn to every register a micro-op reads. */
template <typename Fn>
void
forEachSrc(const MicroOp &op, Fn fn)
{
    switch (op.op) {
      case MOp::Const:
      case MOp::LdBuiltin:
      case MOp::LdPush:
      case MOp::Jmp:
      case MOp::Barrier:
      case MOp::Ret:
        break;
      case MOp::Mov:
      case MOp::INot: case MOp::INeg:
      case MOp::FAbs: case MOp::FNeg: case MOp::FSqrt: case MOp::FExp:
      case MOp::FLog: case MOp::FFloor: case MOp::FSin: case MOp::FCos:
      case MOp::CvtSF: case MOp::CvtFS:
      case MOp::LdShared:
        fn(op.b);
        break;
      case MOp::FFma:
      case MOp::Select:
        fn(op.b);
        fn(op.c);
        fn(op.d);
        break;
      case MOp::LdBuf:
        fn(op.c);
        break;
      case MOp::StBuf:
        fn(op.b);
        fn(op.c);
        break;
      case MOp::StShared:
        fn(op.a);
        fn(op.b);
        break;
      case MOp::AtomIAdd: case MOp::AtomIOr:
      case MOp::AtomIMin: case MOp::AtomIMax:
        fn(op.c);
        fn(op.d);
        break;
      case MOp::BrTrue:
      case MOp::BrFalse:
        fn(op.a);
        break;
      case MOp::ConstAlu:
        fn(op.d);
        fn(op.e);
        break;
      case MOp::IAddLd:
      case MOp::IAddLdSh:
      case MOp::IDivRem:
        fn(op.b);
        fn(op.c);
        break;
      case MOp::IAddSt:
      case MOp::IAddStSh:
      case MOp::FSubStSh:
      case MOp::FDivStSh:
        fn(op.b);
        fn(op.c);
        fn(op.d);
        break;
      case MOp::IMulAdd:
      case MOp::IAddAdd:
      case MOp::MulAddLdSh:
      case MOp::FMulFAdd:
      case MOp::FMulFSub:
        fn(op.b);
        fn(op.c);
        fn(op.e);
        break;
      case MOp::MulAddStSh:
        fn(op.b);
        fn(op.c);
        fn(op.e);
        fn(op.aux);
        break;
      case MOp::LdShFMul:
      case MOp::LdShFSub:
      case MOp::LdShFDiv:
        fn(op.b);
        fn(op.e);
        break;
      case MOp::Super:
      case MOp::SuperLoop:
        VCB_ASSERT(false, "forEachSrc on a superop");
        break;
      default:
        // Binary ALU, compares, CmpBr*: sources in b and c.
        fn(op.b);
        fn(op.c);
        break;
    }
}

/** True when the builtin's value is fixed for a whole dispatch. */
bool
isDispatchUniformBuiltin(uint16_t code)
{
    using spirv::Builtin;
    switch (static_cast<Builtin>(code)) {
      case Builtin::NumGroupsX:
      case Builtin::NumGroupsY:
      case Builtin::NumGroupsZ:
      case Builtin::LocalSizeX:
      case Builtin::LocalSizeY:
      case Builtin::LocalSizeZ:
      case Builtin::GlobalSizeX:
      case Builtin::GlobalSizeY:
      case Builtin::GlobalSizeZ:
        return true;
      default:
        return false;
    }
}

/** Pure micro-ops a register template can evaluate at prepare() time:
 *  no memory, no stats, no control, no traps. */
bool
isTemplatePure(const MicroOp &op)
{
    switch (op.op) {
      case MOp::Const:
      case MOp::Mov:
      case MOp::LdPush:
      case MOp::IAdd: case MOp::ISub: case MOp::IMul:
      case MOp::IMin: case MOp::IMax: case MOp::IAnd: case MOp::IOr:
      case MOp::IXor: case MOp::INot: case MOp::INeg: case MOp::IShl:
      case MOp::IShrU: case MOp::IShrS:
      case MOp::FAdd: case MOp::FSub: case MOp::FMul: case MOp::FDiv:
      case MOp::FMin: case MOp::FMax: case MOp::FAbs: case MOp::FNeg:
      case MOp::FSqrt: case MOp::FExp: case MOp::FLog: case MOp::FFloor:
      case MOp::FSin: case MOp::FCos: case MOp::FFma: case MOp::FPow:
      case MOp::CvtSF: case MOp::CvtFS:
      case MOp::IEq: case MOp::INe: case MOp::ILt: case MOp::ILe:
      case MOp::IGt: case MOp::IGe: case MOp::ULt: case MOp::UGe:
      case MOp::FEq: case MOp::FNe: case MOp::FLt: case MOp::FLe:
      case MOp::FGt: case MOp::FGe:
      case MOp::Select:
      case MOp::ConstAlu:
      case MOp::IMulAdd:
      case MOp::IAddAdd:
        return true;
      case MOp::LdBuiltin:
        return isDispatchUniformBuiltin(op.aux);
      default:
        return false;
    }
}

/**
 * Are all source registers of a template-pure op already uniform?
 * Fused ops may read a register they themselves wrote earlier in
 * their own sequence (e.g. ConstAlu's ALU consuming its constant) —
 * those self-references are uniform by construction.
 */
bool
templateSrcsUniform(const MicroOp &op, const std::vector<uint8_t> &uni)
{
    auto u = [&](uint32_t rr) { return uni[rr] != 0; };
    switch (op.op) {
      case MOp::Const:
      case MOp::LdPush:
      case MOp::LdBuiltin:
        return true;
      case MOp::Mov:
      case MOp::INot:
      case MOp::INeg:
      case MOp::FAbs: case MOp::FNeg: case MOp::FSqrt: case MOp::FExp:
      case MOp::FLog: case MOp::FFloor: case MOp::FSin: case MOp::FCos:
      case MOp::CvtSF: case MOp::CvtFS:
        return u(op.b);
      case MOp::FFma:
      case MOp::Select:
        return u(op.b) && u(op.c) && u(op.d);
      case MOp::ConstAlu:
        // r[a] = imm happens first; the ALU may read it.
        return (u(op.d) || op.d == op.a) && (u(op.e) || op.e == op.a);
      case MOp::IMulAdd:
      case MOp::IAddAdd:
        // b and c are read before a is written; e after.
        return u(op.b) && u(op.c) && (u(op.e) || op.e == op.a);
      default:
        // Binary ALU / compare: sources in b and c.
        return u(op.b) && u(op.c);
    }
}

/**
 * Hoist dispatch-uniform entry ops into mk.templateOps (see the field
 * doc).  Requires write-before-read proven (skipRegZeroInit): then no
 * register is read before its unique write, so evaluating the write
 * early is unobservable.
 */
void
hoistUniformEntry(MicroKernel &mk, std::vector<uint8_t> &cost,
                  uint32_t reg_count)
{
    if (!mk.skipRegZeroInit)
        return;

    // Branch targets in micro space; entering mid-entry-run would
    // re-execute a suffix of it, so the hoist region stops at the
    // first target (re-entry at op 0 re-executes the whole region and
    // stays exact — uniform write-once ops rewrite the same values).
    std::vector<uint8_t> is_target(mk.ops.size(), 0);
    for (const MicroOp &op : mk.ops) {
        switch (op.op) {
          case MOp::Jmp: is_target[op.a] = 1; break;
          case MOp::BrTrue:
          case MOp::BrFalse: is_target[op.b] = 1; break;
          default:
            if (isCmpBr(op.op))
                is_target[op.d] = 1;
            break;
        }
    }

    std::vector<uint8_t> write_count(reg_count, 0);
    for (const MicroOp &op : mk.ops)
        forEachDst(op, [&](uint32_t rr) {
            if (write_count[rr] < 2)
                ++write_count[rr];
        });

    std::vector<uint8_t> uniform(reg_count, 0);
    std::vector<uint8_t> hoist(mk.ops.size(), 0);
    uint32_t hoisted = 0;
    uint32_t hoisted_cost = 0;
    for (size_t i = 0; i < mk.ops.size(); ++i) {
        const MicroOp &op = mk.ops[i];
        if ((i > 0 && is_target[i]) || isTerminator(op.op))
            break;
        if (!isTemplatePure(op))
            continue;
        bool ok = templateSrcsUniform(op, uniform);
        forEachDst(op, [&](uint32_t rr) {
            ok = ok && write_count[rr] == 1;
        });
        if (!ok)
            continue;
        forEachDst(op, [&](uint32_t rr) {
            uniform[rr] = 1;
            mk.templateDsts.push_back(rr);
        });
        hoist[i] = 1;
        ++hoisted;
        hoisted_cost += cost[i];
        mk.templateOps.push_back(op);
    }
    if (hoisted == 0)
        return;

    // Compact the stream and remap branch targets.  All removed ops
    // precede every branch target (the region stops at the first one),
    // so every target shifts down by the full removed count.
    std::vector<MicroOp> new_ops;
    std::vector<uint8_t> new_cost;
    new_ops.reserve(mk.ops.size() - hoisted);
    new_cost.reserve(mk.ops.size() - hoisted);
    for (size_t i = 0; i < mk.ops.size(); ++i) {
        if (hoist[i])
            continue;
        new_ops.push_back(mk.ops[i]);
        new_cost.push_back(cost[i]);
    }
    // Targets are either 0 (loop back to entry: re-executes the whole
    // region, which hoisted write-once ops make value- and
    // cost-neutral) or past the hoist region.
    auto remap = [&](uint32_t t) { return t == 0 ? 0 : t - hoisted; };
    for (MicroOp &op : new_ops) {
        switch (op.op) {
          case MOp::Jmp: op.a = remap(op.a); break;
          case MOp::BrTrue:
          case MOp::BrFalse: op.b = remap(op.b); break;
          default:
            if (isCmpBr(op.op))
                op.d = remap(op.d);
            break;
        }
    }
    mk.ops = std::move(new_ops);
    cost = std::move(new_cost);
    mk.hoistedCost = hoisted_cost;
}

// --- superop recognition (pass 3.5) ---------------------------------------

/**
 * May the candidate run [s, e) keep `scratch` in host registers?
 * Yes iff every scratch register is referenced by NO op outside the
 * run, NO hoisted template op, and is distinct from every distilled
 * operand the template still reads from or writes to the lane
 * register file — then skipping its materialization is invisible.
 */
bool
scratchElidable(const MicroKernel &mk, size_t s, size_t e,
                const uint32_t *scratch, size_t n_scratch,
                const uint32_t *live, size_t n_live)
{
    for (size_t i = 0; i < n_scratch; ++i) {
        const uint32_t reg = scratch[i];
        for (size_t j = 0; j < n_live; ++j)
            if (live[j] == reg)
                return false;
        bool found = false;
        auto mark = [&](uint32_t rr) { found |= rr == reg; };
        for (size_t j = 0; j < mk.ops.size(); ++j) {
            if (j >= s && j < e)
                continue;
            forEachSrc(mk.ops[j], mark);
            forEachDst(mk.ops[j], mark);
        }
        for (const MicroOp &op : mk.templateOps) {
            forEachSrc(op, mark);
            forEachDst(op, mark);
        }
        if (found)
            return false;
    }
    return true;
}

/** Match SuperKind::SqDistStep at mk.ops[i..i+6) (see SuperKind). */
bool
matchSqDistStep(const MicroKernel &mk, size_t i, SuperOp &sup)
{
    const MicroOp *o = mk.ops.data() + i;
    if (o[0].op != MOp::IMulAdd || o[1].op != MOp::LdBuf ||
        o[2].op != MOp::IAddLd || o[3].op != MOp::FSub ||
        o[4].op != MOp::FMulFAdd || o[5].op != MOp::IAdd)
        return false;
    // Wiring: the first load's address comes from the IMulAdd, the
    // subtraction consumes both loads, the multiply-accumulate
    // squares the delta into an in/out accumulator.
    if (o[1].c != o[0].d || o[3].b != o[1].a || o[3].c != o[2].d ||
        o[4].b != o[3].a || o[4].c != o[3].a || o[4].d != o[4].e)
        return false;
    const uint32_t scratch[] = {o[0].a, o[0].d, o[1].a, o[2].a,
                                o[2].d, o[3].a, o[4].a};
    const uint32_t live[] = {o[0].b, o[0].c, o[0].e, o[2].b, o[2].c,
                             o[4].d, o[5].a, o[5].b, o[5].c};
    if (!scratchElidable(mk, i, i + 6, scratch, 7, live, 9))
        return false;
    sup.kind = SuperKind::SqDistStep;
    sup.aux = o[4].aux;
    sup.r[0] = o[0].b;
    sup.r[1] = o[0].c;
    sup.r[2] = o[0].e;
    sup.r[3] = o[2].b;
    sup.r[4] = o[2].c;
    sup.r[5] = o[4].d;
    sup.r[6] = o[5].a;
    sup.r[7] = o[5].b;
    sup.r[8] = o[5].c;
    sup.buf[0] = static_cast<uint16_t>(o[1].b);
    sup.site[0] = static_cast<uint16_t>(o[1].d);
    sup.buf[1] = o[2].aux;
    sup.site[1] = static_cast<uint16_t>(o[2].e);
    return true;
}

/** Match SuperKind::ShDotStep at mk.ops[i..i+6) (see SuperKind). */
bool
matchShDotStep(const MicroKernel &mk, size_t i, SuperOp &sup)
{
    const MicroOp *o = mk.ops.data() + i;
    if (o[0].op != MOp::MulAddLdSh || o[1].op != MOp::IMulAdd ||
        o[2].op != MOp::IAddLdSh || o[3].op != MOp::FFma ||
        o[4].op != MOp::Mov || o[5].op != MOp::IAdd)
        return false;
    // Wiring: the second shared address consumes the IMulAdd, the fma
    // consumes both shared loads, the Mov commits the accumulator.
    if (o[2].c != o[1].d || o[3].b != o[0].aux || o[3].c != o[2].d ||
        o[4].b != o[3].a)
        return false;
    const uint32_t scratch[] = {o[0].a, o[0].d,
                                static_cast<uint32_t>(o[0].aux),
                                o[1].a, o[1].d, o[2].a, o[2].d, o[3].a};
    const uint32_t live[] = {o[0].b, o[0].c, o[0].e, o[1].b, o[1].c,
                             o[1].e, o[2].b, o[3].d, o[4].a,
                             o[5].a,  o[5].b, o[5].c};
    if (!scratchElidable(mk, i, i + 6, scratch, 8, live, 12))
        return false;
    sup.kind = SuperKind::ShDotStep;
    sup.r[0] = o[0].b;
    sup.r[1] = o[0].c;
    sup.r[2] = o[0].e;
    sup.r[3] = o[1].b;
    sup.r[4] = o[1].c;
    sup.r[5] = o[1].e;
    sup.r[6] = o[2].b;
    sup.r[7] = o[3].d;
    sup.r[8] = o[4].a;
    sup.r[9] = o[5].a;
    sup.r[10] = o[5].b;
    sup.r[11] = o[5].c;
    return true;
}

/**
 * Pass 3.5: recognize the suite's dominant straight-line runs and
 * replace each with one MOp::Super record dispatched through the
 * SuperKind template registry.  Runs after hoisting, so the entry
 * analysis sees the plain stream; branch targets are remapped and the
 * per-op costs summed into the record, so costFrom — and therefore
 * laneCycles — are unchanged.  A run is only fused when control flow
 * cannot enter its interior and its scratch registers are provably
 * unreferenced outside it (then every executor tier may keep them in
 * host registers instead of the lane register file).
 */
void
fuseSuperopRuns(MicroKernel &mk, std::vector<uint8_t> &cost)
{
    const size_t n = mk.ops.size();
    std::vector<uint8_t> is_target(n, 0);
    for (const MicroOp &op : mk.ops) {
        switch (op.op) {
          case MOp::Jmp: is_target[op.a] = 1; break;
          case MOp::BrTrue:
          case MOp::BrFalse: is_target[op.b] = 1; break;
          default:
            if (isCmpBr(op.op))
                is_target[op.d] = 1;
            break;
        }
    }
    auto interiorFree = [&](size_t s, size_t e) {
        for (size_t j = s + 1; j < e; ++j)
            if (is_target[j])
                return false;
        return true;
    };

    std::vector<MicroOp> new_ops;
    std::vector<uint8_t> new_cost;
    std::vector<uint32_t> remap(n, 0);
    new_ops.reserve(n);
    new_cost.reserve(n);
    size_t i = 0;
    while (i < n) {
        remap[i] = static_cast<uint32_t>(new_ops.size());
        SuperOp sup;
        size_t len = 0;
        if (i + 6 <= n && interiorFree(i, i + 6) &&
            (matchSqDistStep(mk, i, sup) || matchShDotStep(mk, i, sup)))
            len = 6;
        if (len == 0) {
            new_ops.push_back(mk.ops[i]);
            new_cost.push_back(cost[i]);
            ++i;
            continue;
        }
        uint32_t csum = 0;
        for (size_t j = 0; j < len; ++j)
            csum += cost[i + j];
        sup.cost = csum;
        MicroOp op;
        op.op = MOp::Super;
        op.aux = static_cast<uint16_t>(mk.supers.size());
        mk.supers.push_back(sup);
        new_ops.push_back(op);
        VCB_ASSERT(csum <= 0xff, "superop cost overflow");
        new_cost.push_back(static_cast<uint8_t>(csum));
        i += len;
    }
    if (mk.supers.empty())
        return;
    for (MicroOp &op : new_ops) {
        switch (op.op) {
          case MOp::Jmp: op.a = remap[op.a]; break;
          case MOp::BrTrue:
          case MOp::BrFalse: op.b = remap[op.b]; break;
          default:
            if (isCmpBr(op.op))
                op.d = remap[op.d];
            break;
        }
    }
    mk.ops = std::move(new_ops);
    cost = std::move(new_cost);
}

/** Registers a superop template references (prefix of SuperOp::r). */
size_t
superRegCount(SuperKind kind)
{
    switch (kind) {
      case SuperKind::SqDistStep: return 9;
      case SuperKind::ShDotStep: return 12;
      case SuperKind::Count: break;
    }
    return 0;
}

/**
 * Pass 3.6: wrap each [CmpBrILt head; Super body; Jmp back-to-head]
 * triad into one MOp::SuperLoop terminator that runs the counted loop
 * to completion per lane — the executor pays one dispatch per LOOP
 * instead of three per ITERATION, and per-lane trip counts never
 * surface as divergence (all lanes reconverge at the exit pc).
 *
 * Soundness: control flow cannot land inside the triad (is_target),
 * the head's exit value of the flag register is written exactly
 * (loopAux — the failing test's result), and skipping the flag's
 * intermediate per-test writes is invisible because the flag register
 * is provably not referenced by the head's own operands or the body.
 * Cycle charges are carried per iteration (headCost + bodyCost, the
 * same costFrom charges the unfused stream pays per trip around the
 * back edge), so laneCycles stay bit-identical.
 */
void
fuseSuperLoops(MicroKernel &mk, std::vector<uint8_t> &cost)
{
    const size_t n = mk.ops.size();
    std::vector<uint8_t> is_target(n, 0);
    for (const MicroOp &op : mk.ops) {
        switch (op.op) {
          case MOp::Jmp: is_target[op.a] = 1; break;
          case MOp::BrTrue:
          case MOp::BrFalse: is_target[op.b] = 1; break;
          default:
            if (isCmpBr(op.op))
                is_target[op.d] = 1;
            break;
        }
    }

    std::vector<MicroOp> new_ops;
    std::vector<uint8_t> new_cost;
    std::vector<uint32_t> remap(n, 0);
    new_ops.reserve(n);
    new_cost.reserve(n);
    bool any = false;
    size_t i = 0;
    while (i < n) {
        remap[i] = static_cast<uint32_t>(new_ops.size());
        bool fuse = false;
        if (i + 3 <= n && mk.ops[i].op == MOp::CmpBrILt &&
            mk.ops[i].aux == 0 && mk.ops[i + 1].op == MOp::Super &&
            mk.ops[i + 2].op == MOp::Jmp && mk.ops[i + 2].a == i &&
            !is_target[i + 1] && !is_target[i + 2] &&
            mk.ops[i].d != i && mk.ops[i].d != i + 1 &&
            mk.ops[i].d != i + 2) {
            const MicroOp &head = mk.ops[i];
            SuperOp &sup = mk.supers[mk.ops[i + 1].aux];
            bool flag_free = head.a != head.b && head.a != head.c;
            for (size_t r = 0, cnt = superRegCount(sup.kind); r < cnt;
                 ++r)
                flag_free &= head.a != sup.r[r];
            if (flag_free) {
                sup.loop = 1;
                sup.loopAux = head.aux;
                sup.loopFlag = head.a;
                sup.loopB = head.b;
                sup.loopC = head.c;
                sup.exitPc = head.d; // old index; remapped below
                sup.headCost = cost[i];
                sup.bodyCost =
                    static_cast<uint32_t>(cost[i + 1]) + cost[i + 2];
                MicroOp op;
                op.op = MOp::SuperLoop;
                op.aux = mk.ops[i + 1].aux;
                new_ops.push_back(op);
                // Arrival charge stays the head test's cost; the
                // handler charges the per-iteration costs itself.
                new_cost.push_back(cost[i]);
                fuse = true;
                any = true;
            }
        }
        if (!fuse) {
            new_ops.push_back(mk.ops[i]);
            new_cost.push_back(cost[i]);
            ++i;
            continue;
        }
        remap[i + 1] = remap[i];
        remap[i + 2] = remap[i];
        i += 3;
    }
    if (!any)
        return;
    for (MicroOp &op : new_ops) {
        switch (op.op) {
          case MOp::Jmp: op.a = remap[op.a]; break;
          case MOp::BrTrue:
          case MOp::BrFalse: op.b = remap[op.b]; break;
          default:
            if (isCmpBr(op.op))
                op.d = remap[op.d];
            break;
        }
    }
    for (SuperOp &sup : mk.supers)
        if (sup.loop)
            sup.exitPc = remap[sup.exitPc];
    mk.ops = std::move(new_ops);
    cost = std::move(new_cost);
}

} // namespace

void
lowerKernel(CompiledKernel &k, const LowerOptions &opt)
{
    // Build into a local and publish at the end: k.micro may alias a
    // program shared with other cache clients, which must never see a
    // half-lowered stream (or any mutation at all).
    MicroKernel local;
    MicroKernel &mk = local;

    const std::vector<Insn> &insns = k.insns;
    const size_t n = insns.size();
    VCB_ASSERT(n > 0, "kernel '%s': empty instruction stream",
               k.module.name.c_str());

    // Instructions control flow can land on: fusion must not swallow
    // them as the second half of a pair.
    std::vector<uint8_t> is_target(n, 0);
    for (const Insn &in : insns) {
        switch (in.op) {
          case Op::Br: is_target[in.a] = 1; break;
          case Op::BrTrue:
          case Op::BrFalse: is_target[in.b] = 1; break;
          default: break;
        }
    }

    // Pass 1: emit micro-ops; branch fields keep *source* instruction
    // targets until pass 2 remaps them through micro_of.
    std::vector<uint32_t> micro_of(n, 0);
    std::vector<uint8_t> cost; // per micro-op issue cost
    cost.reserve(n);
    mk.ops.reserve(n);

    auto emit = [&](MicroOp op, uint8_t op_cost) {
        mk.ops.push_back(op);
        cost.push_back(op_cost);
    };

    size_t i = 0;
    while (i < n) {
        micro_of[i] = static_cast<uint32_t>(mk.ops.size());
        const Insn &in = insns[i];

        if (i + 1 < n && !is_target[i + 1]) {
            const Insn &nx = insns[i + 1];
            const uint8_t pair_cost =
                static_cast<uint8_t>(opCost(in.op) + opCost(nx.op));
            auto fused = [&](MicroOp op) {
                emit(op, pair_cost);
                micro_of[i + 1] =
                    static_cast<uint32_t>(mk.ops.size()) - 1;
                ++mk.fusedPairs;
                i += 2;
            };
            BinKind kind;
            if (opt.fuseCmpBranch && isCompare(in.op, &kind) &&
                (nx.op == Op::BrTrue || nx.op == Op::BrFalse) &&
                nx.a == in.a) {
                static_assert(
                    static_cast<int>(MOp::CmpBrFGe) -
                            static_cast<int>(MOp::CmpBrIEq) ==
                        static_cast<int>(BinKind::FGe) -
                            static_cast<int>(BinKind::IEq),
                    "CmpBr block out of sync with BinKind comparisons");
                const MOp cmp_br = static_cast<MOp>(
                    static_cast<int>(MOp::CmpBrIEq) +
                    (static_cast<int>(kind) -
                     static_cast<int>(BinKind::IEq)));
                uint16_t sense = nx.op == Op::BrTrue ? 1 : 0;
                fused({cmp_br, sense, in.a, in.b, in.c, nx.b, 0});
                continue;
            }
            if (in.op == Op::IAdd) {
                // IAdd feeding the next op's memory address — the
                // array-indexing idiom.  The address register is still
                // written (it may be read downstream).
                const uint32_t nx_site =
                    k.siteOfInsn[i + 1] ? k.siteOfInsn[i + 1] - 1 : 0;
                if (opt.fuseAddrMem && nx.op == Op::LdBuf &&
                    nx.c == in.a) {
                    fused({MOp::IAddLd, static_cast<uint16_t>(nx.b),
                           in.a, in.b, in.c, nx.a, nx_site});
                    continue;
                }
                if (opt.fuseAddrMem && nx.op == Op::StBuf &&
                    nx.b == in.a) {
                    fused({MOp::IAddSt, static_cast<uint16_t>(nx.a),
                           in.a, in.b, in.c, nx.c, nx_site});
                    continue;
                }
                if (opt.fuseAddrMem && nx.op == Op::LdShared &&
                    nx.b == in.a) {
                    fused({MOp::IAddLdSh, 0, in.a, in.b, in.c, nx.a, 0});
                    continue;
                }
                if (opt.fuseAddrMem && nx.op == Op::StShared &&
                    nx.a == in.a) {
                    fused({MOp::IAddStSh, 0, in.a, in.b, in.c, nx.b, 0});
                    continue;
                }
                if (opt.fuseMulAdd && nx.op == Op::IAdd &&
                    (nx.b == in.a || nx.c == in.a)) {
                    const uint32_t other = nx.b == in.a ? nx.c : nx.b;
                    fused({MOp::IAddAdd, 0, in.a, in.b, in.c, nx.a,
                           other});
                    continue;
                }
            }
            if (opt.fuseMulAdd && in.op == Op::IMul &&
                nx.op == Op::IAdd && (nx.b == in.a || nx.c == in.a)) {
                // t = b*c feeding an add: addition commutes, so the
                // other operand's position doesn't matter.
                const uint32_t other = nx.b == in.a ? nx.c : nx.b;
                // Triple: the add's result feeding a shared-memory
                // access (the row*pitch+col staging idiom).  Three
                // source ops collapse into one micro-op.
                if (opt.fuseAddrMem && i + 2 < n && !is_target[i + 2]) {
                    const Insn &n2 = insns[i + 2];
                    const uint8_t triple_cost = static_cast<uint8_t>(
                        opCost(in.op) + opCost(nx.op) + opCost(n2.op));
                    if (n2.op == Op::LdShared && n2.b == nx.a) {
                        emit({MOp::MulAddLdSh,
                              static_cast<uint16_t>(n2.a), in.a, in.b,
                              in.c, nx.a, other},
                             triple_cost);
                        micro_of[i + 1] = micro_of[i + 2] =
                            static_cast<uint32_t>(mk.ops.size()) - 1;
                        mk.fusedPairs += 2;
                        i += 3;
                        continue;
                    }
                    if (n2.op == Op::StShared && n2.a == nx.a) {
                        emit({MOp::MulAddStSh,
                              static_cast<uint16_t>(n2.b), in.a, in.b,
                              in.c, nx.a, other},
                             triple_cost);
                        micro_of[i + 1] = micro_of[i + 2] =
                            static_cast<uint32_t>(mk.ops.size()) - 1;
                        mk.fusedPairs += 2;
                        i += 3;
                        continue;
                    }
                }
                fused({MOp::IMulAdd, 0, in.a, in.b, in.c, nx.a, other});
                continue;
            }
            if (opt.fuseConstAlu &&
                (in.op == Op::ConstI || in.op == Op::ConstF) &&
                binKindOf(nx.op, &kind) &&
                (nx.b == in.a || nx.c == in.a)) {
                fused({MOp::ConstAlu, static_cast<uint16_t>(kind), in.a,
                       in.b, nx.a, nx.b, nx.c});
                continue;
            }
            // Float producer/consumer pairs (operand order preserved:
            // aux bit 0 says the produced value is the left operand).
            if (opt.fuseMulAdd && in.op == Op::FMul &&
                (nx.op == Op::FAdd || nx.op == Op::FSub) &&
                (nx.b == in.a || nx.c == in.a)) {
                const uint16_t left = nx.b == in.a ? 1 : 0;
                const uint32_t other = left ? nx.c : nx.b;
                fused({nx.op == Op::FAdd ? MOp::FMulFAdd : MOp::FMulFSub,
                       left, in.a, in.b, in.c, nx.a, other});
                continue;
            }
            if (opt.fuseAddrMem && in.op == Op::LdShared &&
                (nx.op == Op::FMul || nx.op == Op::FSub ||
                 nx.op == Op::FDiv) &&
                (nx.b == in.a || nx.c == in.a)) {
                const uint16_t left = nx.b == in.a ? 1 : 0;
                const uint32_t other = left ? nx.c : nx.b;
                const MOp mop = nx.op == Op::FMul   ? MOp::LdShFMul
                                : nx.op == Op::FSub ? MOp::LdShFSub
                                                    : MOp::LdShFDiv;
                fused({mop, left, in.a, in.b, 0, nx.a, other});
                continue;
            }
            if (opt.fuseAddrMem &&
                (in.op == Op::FSub || in.op == Op::FDiv) &&
                nx.op == Op::StShared && nx.b == in.a) {
                fused({in.op == Op::FSub ? MOp::FSubStSh : MOp::FDivStSh,
                       0, in.a, in.b, in.c, nx.a, 0});
                continue;
            }
            if (opt.fuseMulAdd && in.op == Op::IDiv &&
                nx.op == Op::IRem && nx.b == in.b && nx.c == in.c &&
                in.a != in.b && in.a != in.c) {
                // Same operands and the quotient doesn't clobber them:
                // one host division yields both results.
                fused({MOp::IDivRem, 0, in.a, in.b, in.c, nx.a, 0});
                continue;
            }
        }

        const uint8_t c = opCost(in.op);
        const uint32_t site =
            k.siteOfInsn[i] ? k.siteOfInsn[i] - 1 : 0;
        switch (in.op) {
          case Op::Nop:
            break; // dropped; micro_of already points at the next op
          case Op::ConstI:
          case Op::ConstF:
            emit({MOp::Const, 0, in.a, in.b, 0, 0, 0}, c);
            break;
          case Op::Mov:
            emit({MOp::Mov, 0, in.a, in.b, 0, 0, 0}, c);
            break;
          case Op::LdBuiltin:
            emit({MOp::LdBuiltin, static_cast<uint16_t>(in.b), in.a, 0,
                  0, 0, 0}, c);
            break;
          case Op::LdPush:
            VCB_ASSERT(in.b < k.module.pushWords,
                       "kernel '%s': push word %u outside block (%u)",
                       k.module.name.c_str(), in.b, k.module.pushWords);
            emit({MOp::LdPush, 0, in.a, in.b, 0, 0, 0}, c);
            break;

#define VCB_LOWER_SAME(name)                                              \
          case Op::name:                                                  \
            emit({MOp::name, 0, in.a, in.b, in.c, in.d, 0}, c);           \
            break
          VCB_LOWER_SAME(IAdd); VCB_LOWER_SAME(ISub);
          VCB_LOWER_SAME(IMul); VCB_LOWER_SAME(IDiv);
          VCB_LOWER_SAME(IRem); VCB_LOWER_SAME(IMin);
          VCB_LOWER_SAME(IMax); VCB_LOWER_SAME(IAnd);
          VCB_LOWER_SAME(IOr);  VCB_LOWER_SAME(IXor);
          VCB_LOWER_SAME(INot); VCB_LOWER_SAME(INeg);
          VCB_LOWER_SAME(IShl); VCB_LOWER_SAME(IShrU);
          VCB_LOWER_SAME(IShrS);
          VCB_LOWER_SAME(FAdd); VCB_LOWER_SAME(FSub);
          VCB_LOWER_SAME(FMul); VCB_LOWER_SAME(FDiv);
          VCB_LOWER_SAME(FMin); VCB_LOWER_SAME(FMax);
          VCB_LOWER_SAME(FAbs); VCB_LOWER_SAME(FNeg);
          VCB_LOWER_SAME(FSqrt); VCB_LOWER_SAME(FExp);
          VCB_LOWER_SAME(FLog); VCB_LOWER_SAME(FFloor);
          VCB_LOWER_SAME(FSin); VCB_LOWER_SAME(FCos);
          VCB_LOWER_SAME(FFma); VCB_LOWER_SAME(FPow);
          VCB_LOWER_SAME(CvtSF); VCB_LOWER_SAME(CvtFS);
          VCB_LOWER_SAME(IEq); VCB_LOWER_SAME(INe);
          VCB_LOWER_SAME(ILt); VCB_LOWER_SAME(ILe);
          VCB_LOWER_SAME(IGt); VCB_LOWER_SAME(IGe);
          VCB_LOWER_SAME(ULt); VCB_LOWER_SAME(UGe);
          VCB_LOWER_SAME(FEq); VCB_LOWER_SAME(FNe);
          VCB_LOWER_SAME(FLt); VCB_LOWER_SAME(FLe);
          VCB_LOWER_SAME(FGt); VCB_LOWER_SAME(FGe);
          VCB_LOWER_SAME(Select);
          VCB_LOWER_SAME(LdShared); VCB_LOWER_SAME(StShared);
#undef VCB_LOWER_SAME

          case Op::LdBuf:
            emit({MOp::LdBuf, 0, in.a, in.b, in.c, site, 0}, c);
            break;
          case Op::StBuf:
            emit({MOp::StBuf, 0, in.a, in.b, in.c, site, 0}, c);
            break;
          case Op::AtomIAdd:
            emit({MOp::AtomIAdd, 0, in.a, in.b, in.c, in.d, site}, c);
            break;
          case Op::AtomIOr:
            emit({MOp::AtomIOr, 0, in.a, in.b, in.c, in.d, site}, c);
            break;
          case Op::AtomIMin:
            emit({MOp::AtomIMin, 0, in.a, in.b, in.c, in.d, site}, c);
            break;
          case Op::AtomIMax:
            emit({MOp::AtomIMax, 0, in.a, in.b, in.c, in.d, site}, c);
            break;

          case Op::Br:
            emit({MOp::Jmp, 0, in.a, 0, 0, 0, 0}, c);
            break;
          case Op::BrTrue:
            emit({MOp::BrTrue, 0, in.a, in.b, 0, 0, 0}, c);
            break;
          case Op::BrFalse:
            emit({MOp::BrFalse, 0, in.a, in.b, 0, 0, 0}, c);
            break;
          case Op::Barrier:
            emit({MOp::Barrier, 0, 0, 0, 0, 0, 0}, c);
            mk.hasBarrier = true;
            break;
          case Op::Ret:
            emit({MOp::Ret, 0, 0, 0, 0, 0, 0}, c);
            break;
          case Op::Count:
            panic("kernel '%s' @%zu: invalid opcode",
                  k.module.name.c_str(), i);
        }
        ++i;
    }

    // Pass 2: remap branch targets from source to micro indices.
    for (MicroOp &op : mk.ops) {
        switch (op.op) {
          case MOp::Jmp: op.a = micro_of[op.a]; break;
          case MOp::BrTrue:
          case MOp::BrFalse: op.b = micro_of[op.b]; break;
          default:
            if (isCmpBr(op.op))
                op.d = micro_of[op.d];
            break;
        }
    }

    mk.skipRegZeroInit = provesWriteBeforeRead(k);

    // Pass 3: hoist dispatch-uniform entry ops into the register
    // template (sound only with write-before-read proven).
    hoistUniformEntry(mk, cost, k.module.regCount);

    // Pass 3.5: templated superops over the remaining stream, then
    // pass 3.6: counted loops around a superop body fuse into
    // run-to-completion SuperLoop records.
    if (opt.fuseSuperops && superopsEnabled()) {
        fuseSuperopRuns(mk, cost);
        if (!mk.supers.empty())
            fuseSuperLoops(mk, cost);
    }

    // Pass 4: suffix-sum costs per straight-line run; the entry run
    // additionally carries the hoisted ops' cost so laneCycles stay
    // bit-identical.
    mk.costFrom.resize(mk.ops.size());
    for (size_t j = mk.ops.size(); j-- > 0;) {
        uint32_t after =
            isTerminator(mk.ops[j].op) ? 0 : mk.costFrom[j + 1];
        mk.costFrom[j] = cost[j] + after;
    }
    mk.costFrom[0] += mk.hoistedCost;

    // Tier-policy metadata.
    for (const MicroOp &op : mk.ops) {
        switch (op.op) {
          case MOp::Jmp:
          case MOp::BrTrue:
          case MOp::BrFalse:
            mk.hasBranches = true;
            break;
          case MOp::AtomIAdd:
          case MOp::AtomIOr:
          case MOp::AtomIMin:
          case MOp::AtomIMax:
            mk.hasAtomics = true;
            break;
          default:
            if (isCmpBr(op.op))
                mk.hasBranches = true;
            break;
        }
    }

    k.micro = std::make_shared<const MicroKernel>(std::move(local));
}

ExecTier
chooseExecTier(const MicroKernel &mk)
{
    if (!mk.hasBranches && !mk.hasAtomics)
        return ExecTier::Trace;
    return ExecTier::Block;
}

// --- executor-tier knobs --------------------------------------------------

const char *
execTierName(ExecTier t)
{
    switch (t) {
      case ExecTier::Trace: return "trace";
      case ExecTier::Block: return "block";
      case ExecTier::LaneMajor: return "lane";
      case ExecTier::Instrumented: return "instrumented";
      case ExecTier::Count: break;
    }
    return "auto";
}

namespace {
/** Cached VCB_EXECUTOR: Count+1 = not read yet, Count = auto. */
std::atomic<uint8_t> g_forced_tier{static_cast<uint8_t>(ExecTier::Count) +
                                   1};
/** Cached VCB_SUPEROPS state: -1 = not read yet, else 0/1. */
std::atomic<int> g_superops{-1};
/** The options compileKernel lowers with (setCompileLowerOptions). */
std::mutex g_lower_mtx;
LowerOptions g_lower;
} // namespace

ExecTier
executorOverride()
{
    uint8_t v = g_forced_tier.load(std::memory_order_relaxed);
    if (v > static_cast<uint8_t>(ExecTier::Count)) {
        ExecTier t = ExecTier::Count;
        if (const char *env = std::getenv("VCB_EXECUTOR")) {
            const std::string s(env);
            if (s == "trace")
                t = ExecTier::Trace;
            else if (s == "block")
                t = ExecTier::Block;
            else if (s == "lane")
                t = ExecTier::LaneMajor;
            else if (s == "instrumented")
                t = ExecTier::Instrumented;
            else if (!s.empty() && s != "auto")
                fatal("VCB_EXECUTOR='%s' is not one of "
                      "trace/block/lane/instrumented/auto",
                      env);
        }
        v = static_cast<uint8_t>(t);
        g_forced_tier.store(v, std::memory_order_relaxed);
    }
    return static_cast<ExecTier>(v);
}

void
setExecutorOverride(ExecTier t)
{
    // Count resets to "unread" so the next query re-parses the env.
    g_forced_tier.store(t == ExecTier::Count
                            ? static_cast<uint8_t>(ExecTier::Count) + 1
                            : static_cast<uint8_t>(t),
                        std::memory_order_relaxed);
}

bool
superopsEnabled()
{
    int v = g_superops.load(std::memory_order_relaxed);
    if (v < 0) {
        const char *env = std::getenv("VCB_SUPEROPS");
        v = (env && env[0] == '0' && env[1] == '\0') ? 0 : 1;
        g_superops.store(v, std::memory_order_relaxed);
    }
    return v != 0;
}

void
setSuperopsEnabled(int enabled)
{
    g_superops.store(enabled < 0 ? -1 : (enabled != 0),
                     std::memory_order_relaxed);
}

LowerOptions
compileLowerOptions()
{
    std::lock_guard<std::mutex> lk(g_lower_mtx);
    return g_lower;
}

void
setCompileLowerOptions(const LowerOptions &opt)
{
    std::lock_guard<std::mutex> lk(g_lower_mtx);
    g_lower = opt;
}

ExecTier
effectiveExecTier(const MicroKernel &mk)
{
    const ExecTier forced = executorOverride();
    ExecTier tier =
        forced == ExecTier::Count ? chooseExecTier(mk) : forced;
    // The trace tier requires a straight-line atomic-free body; a
    // forced "trace" degrades to the block tier where that fails.
    if (tier == ExecTier::Trace && (mk.hasBranches || mk.hasAtomics))
        tier = ExecTier::Block;
    return tier;
}

// --- disassembly ----------------------------------------------------------

const char *
mopName(MOp op)
{
    static const char *const names[] = {
        "Const", "Mov", "LdBuiltin", "LdPush",
        "IAdd", "ISub", "IMul", "IDiv", "IRem", "IMin", "IMax", "IAnd",
        "IOr", "IXor", "INot", "INeg", "IShl", "IShrU", "IShrS",
        "FAdd", "FSub", "FMul", "FDiv", "FMin", "FMax", "FAbs", "FNeg",
        "FSqrt", "FExp", "FLog", "FFloor", "FSin", "FCos", "FFma",
        "FPow", "CvtSF", "CvtFS",
        "IEq", "INe", "ILt", "ILe", "IGt", "IGe", "ULt", "UGe",
        "FEq", "FNe", "FLt", "FLe", "FGt", "FGe", "Select",
        "LdBuf", "StBuf", "LdShared", "StShared",
        "AtomIAdd", "AtomIOr", "AtomIMin", "AtomIMax",
        "Jmp", "BrTrue", "BrFalse",
        "CmpBrIEq", "CmpBrINe", "CmpBrILt", "CmpBrILe", "CmpBrIGt",
        "CmpBrIGe", "CmpBrULt", "CmpBrUGe",
        "CmpBrFEq", "CmpBrFNe", "CmpBrFLt", "CmpBrFLe", "CmpBrFGt",
        "CmpBrFGe",
        "ConstAlu", "IAddLd", "IAddSt", "IMulAdd", "IAddAdd",
        "IAddLdSh", "IAddStSh", "MulAddLdSh", "MulAddStSh",
        "FMulFAdd", "FMulFSub",
        "LdShFMul", "LdShFSub", "LdShFDiv",
        "FSubStSh", "FDivStSh", "IDivRem",
        "Super", "SuperLoop",
        "Barrier", "Ret",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                      static_cast<size_t>(MOp::Count),
                  "name table out of sync with MOp");
    const size_t raw = static_cast<size_t>(op);
    return raw < static_cast<size_t>(MOp::Count) ? names[raw] : "?";
}

const char *
superKindName(SuperKind kind)
{
    switch (kind) {
      case SuperKind::SqDistStep: return "SqDistStep";
      case SuperKind::ShDotStep: return "ShDotStep";
      case SuperKind::Count: break;
    }
    return "?";
}

namespace {

/** printf into a std::string. */
std::string
strf(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

const char *
binKindName(BinKind k)
{
    static const char *const names[] = {
        "iadd", "isub", "imul", "imin", "imax", "iand", "ior", "ixor",
        "ishl", "ishru", "ishrs",
        "fadd", "fsub", "fmul", "fdiv", "fmin", "fmax",
        "ieq", "ine", "ilt", "ile", "igt", "ige", "ult", "uge",
        "feq", "fne", "flt", "fle", "fgt", "fge",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                      static_cast<size_t>(BinKind::Count),
                  "name table out of sync with BinKind");
    const size_t raw = static_cast<size_t>(k);
    return raw < static_cast<size_t>(BinKind::Count) ? names[raw] : "?";
}

/** Infix symbol of a simple binary micro-op, or null. */
const char *
binSymbol(MOp op)
{
    switch (op) {
      case MOp::IAdd: case MOp::FAdd: return "+";
      case MOp::ISub: case MOp::FSub: return "-";
      case MOp::IMul: case MOp::FMul: return "*";
      case MOp::IDiv: case MOp::FDiv: return "/";
      case MOp::IRem: return "%";
      case MOp::IAnd: return "&";
      case MOp::IOr: return "|";
      case MOp::IXor: return "^";
      case MOp::IShl: return "<<";
      case MOp::IShrU: return ">>u";
      case MOp::IShrS: return ">>s";
      case MOp::IEq: case MOp::FEq: return "==";
      case MOp::INe: case MOp::FNe: return "!=";
      case MOp::ILt: case MOp::FLt: return "<s";
      case MOp::ILe: case MOp::FLe: return "<=s";
      case MOp::IGt: case MOp::FGt: return ">s";
      case MOp::IGe: case MOp::FGe: return ">=s";
      case MOp::ULt: return "<u";
      case MOp::UGe: return ">=u";
      default: return nullptr;
    }
  }

/** Comparison symbol of a CmpBr op (CmpBrIEq..CmpBrFGe). */
const char *
cmpBrSymbol(MOp op)
{
    static const char *const sym[] = {"==", "!=", "<s", "<=s", ">s",
                                      ">=s", "<u", ">=u", "==", "!=",
                                      "<", "<=", ">", ">="};
    return sym[static_cast<size_t>(op) -
               static_cast<size_t>(MOp::CmpBrIEq)];
}

} // namespace

std::string
renderMicroOp(const MicroKernel &mk, uint32_t pc)
{
    const MicroOp &o = mk.ops[pc];
    if (const char *sym = binSymbol(o.op))
        return strf("r%u = r%u %s r%u", o.a, o.b, sym, o.c);
    if (isCmpBr(o.op))
        return strf("r%u = r%u %s r%u; br @%u if %u", o.a, o.b,
                    cmpBrSymbol(o.op), o.c, o.d, o.aux);
    switch (o.op) {
      case MOp::Const:
        return strf("r%u = %u (%g)", o.a, o.b, bitsToF(o.b));
      case MOp::Mov: return strf("r%u = r%u", o.a, o.b);
      case MOp::LdBuiltin:
        return strf("r%u = %s", o.a,
                    spirv::builtinName(
                        static_cast<spirv::Builtin>(o.aux)));
      case MOp::LdPush: return strf("r%u = push[%u]", o.a, o.b);
      case MOp::INot: return strf("r%u = ~r%u", o.a, o.b);
      case MOp::INeg: case MOp::FNeg:
        return strf("r%u = -r%u", o.a, o.b);
      case MOp::FAbs: case MOp::FSqrt: case MOp::FExp: case MOp::FLog:
      case MOp::FFloor: case MOp::FSin: case MOp::FCos:
      case MOp::CvtSF: case MOp::CvtFS:
        return strf("r%u = %s(r%u)", o.a, mopName(o.op), o.b);
      case MOp::FMin: case MOp::FMax: case MOp::IMin: case MOp::IMax:
      case MOp::FPow:
        return strf("r%u = %s(r%u, r%u)", o.a, mopName(o.op), o.b, o.c);
      case MOp::FFma:
        return strf("r%u = fma(r%u, r%u, r%u)", o.a, o.b, o.c, o.d);
      case MOp::Select:
        return strf("r%u = r%u ? r%u : r%u", o.a, o.b, o.c, o.d);
      case MOp::LdBuf:
        return strf("r%u = buf%u[r%u]  site %u", o.a, o.b, o.c, o.d);
      case MOp::StBuf:
        return strf("buf%u[r%u] = r%u  site %u", o.a, o.b, o.c, o.d);
      case MOp::LdShared: return strf("r%u = sh[r%u]", o.a, o.b);
      case MOp::StShared: return strf("sh[r%u] = r%u", o.a, o.b);
      case MOp::AtomIAdd: case MOp::AtomIOr: case MOp::AtomIMin:
      case MOp::AtomIMax:
        return strf("r%u = %s(buf%u[r%u], r%u)  site %u", o.a,
                    mopName(o.op), o.b, o.c, o.d, o.e);
      case MOp::Jmp: return strf("jmp @%u", o.a);
      case MOp::BrTrue: return strf("br @%u if r%u", o.b, o.a);
      case MOp::BrFalse: return strf("br @%u if !r%u", o.b, o.a);
      case MOp::ConstAlu:
        return strf("r%u = %u (%g); r%u = %s(r%u, r%u)", o.a, o.b,
                    bitsToF(o.b), o.c,
                    binKindName(static_cast<BinKind>(o.aux)), o.d, o.e);
      case MOp::IAddLd:
        return strf("r%u = r%u + r%u; r%u = buf%u[r%u]  site %u", o.a,
                    o.b, o.c, o.d, o.aux, o.a, o.e);
      case MOp::IAddSt:
        return strf("r%u = r%u + r%u; buf%u[r%u] = r%u  site %u", o.a,
                    o.b, o.c, o.aux, o.a, o.d, o.e);
      case MOp::IMulAdd:
        return strf("r%u = r%u * r%u; r%u = r%u + r%u", o.a, o.b, o.c,
                    o.d, o.a, o.e);
      case MOp::IAddAdd:
        return strf("r%u = r%u + r%u; r%u = r%u + r%u", o.a, o.b, o.c,
                    o.d, o.a, o.e);
      case MOp::IAddLdSh:
        return strf("r%u = r%u + r%u; r%u = sh[r%u]", o.a, o.b, o.c,
                    o.d, o.a);
      case MOp::IAddStSh:
        return strf("r%u = r%u + r%u; sh[r%u] = r%u", o.a, o.b, o.c,
                    o.a, o.d);
      case MOp::MulAddLdSh:
        return strf("r%u = r%u * r%u; r%u = r%u + r%u; r%u = sh[r%u]",
                    o.a, o.b, o.c, o.d, o.a, o.e, o.aux, o.d);
      case MOp::MulAddStSh:
        return strf("r%u = r%u * r%u; r%u = r%u + r%u; sh[r%u] = r%u",
                    o.a, o.b, o.c, o.d, o.a, o.e, o.d, o.aux);
      case MOp::FMulFAdd:
        return o.aux & 1
                   ? strf("r%u = r%u * r%u; r%u = r%u + r%u", o.a, o.b,
                          o.c, o.d, o.a, o.e)
                   : strf("r%u = r%u * r%u; r%u = r%u + r%u", o.a, o.b,
                          o.c, o.d, o.e, o.a);
      case MOp::FMulFSub:
        return o.aux & 1
                   ? strf("r%u = r%u * r%u; r%u = r%u - r%u", o.a, o.b,
                          o.c, o.d, o.a, o.e)
                   : strf("r%u = r%u * r%u; r%u = r%u - r%u", o.a, o.b,
                          o.c, o.d, o.e, o.a);
      case MOp::LdShFMul: case MOp::LdShFSub: case MOp::LdShFDiv: {
        const char *sym = o.op == MOp::LdShFMul   ? "*"
                          : o.op == MOp::LdShFSub ? "-"
                                                  : "/";
        return o.aux & 1
                   ? strf("r%u = sh[r%u]; r%u = r%u %s r%u", o.a, o.b,
                          o.d, o.a, sym, o.e)
                   : strf("r%u = sh[r%u]; r%u = r%u %s r%u", o.a, o.b,
                          o.d, o.e, sym, o.a);
      }
      case MOp::FSubStSh:
        return strf("r%u = r%u - r%u; sh[r%u] = r%u", o.a, o.b, o.c,
                    o.d, o.a);
      case MOp::FDivStSh:
        return strf("r%u = r%u / r%u; sh[r%u] = r%u", o.a, o.b, o.c,
                    o.d, o.a);
      case MOp::IDivRem:
        return strf("r%u = r%u / r%u; r%u = r%u %% r%u", o.a, o.b, o.c,
                    o.d, o.b, o.c);
      case MOp::Super:
      case MOp::SuperLoop: {
        const SuperOp &s = mk.supers[o.aux];
        std::string body;
        switch (s.kind) {
          case SuperKind::SqDistStep:
            body = strf("SqDistStep: d = buf%u[r%u*r%u+r%u] - "
                        "buf%u[r%u+r%u]; r%u %s d*d; r%u = r%u + r%u"
                        "  sites %u,%u",
                        s.buf[0], s.r[0], s.r[1], s.r[2], s.buf[1],
                        s.r[3], s.r[4], s.r[5],
                        s.aux & 1 ? "=+" : "+=", s.r[6], s.r[7],
                        s.r[8], s.site[0], s.site[1]);
            break;
          case SuperKind::ShDotStep:
            body = strf("ShDotStep: r%u = fma(sh[r%u*r%u+r%u], "
                        "sh[r%u+(r%u*r%u+r%u)], r%u); r%u = r%u + r%u",
                        s.r[8], s.r[0], s.r[1], s.r[2], s.r[6],
                        s.r[3], s.r[4], s.r[5], s.r[7], s.r[9],
                        s.r[10], s.r[11]);
            break;
          case SuperKind::Count:
            body = strf("?%u", o.aux);
            break;
        }
        if (o.op == MOp::Super)
            return "super " + body;
        return strf("superloop while (int r%u < int r%u) [r%u, @%u] ",
                    s.loopB, s.loopC, s.loopFlag, s.exitPc) +
               body;
      }
      case MOp::Barrier: return "barrier";
      case MOp::Ret: return "ret";
      default: break;
    }
    return strf("%s a=%u b=%u c=%u d=%u e=%u aux=%u", mopName(o.op),
                o.a, o.b, o.c, o.d, o.e, o.aux);
}

std::string
disassembleMicro(const MicroKernel &mk)
{
    std::string out;
    out += strf("; %zu micro-ops, %zu hoisted template ops, "
                "%u pairs fused, %zu superops%s\n",
                mk.ops.size(), mk.templateOps.size(), mk.fusedPairs,
                mk.supers.size(),
                mk.skipRegZeroInit ? ", zero-init skipped" : "");
    // Template ops execute once per dispatch; show them with a 't'
    // prefix so listings make the hoist visible.
    MicroKernel tmpl;
    tmpl.ops = mk.templateOps;
    tmpl.costFrom.assign(tmpl.ops.size(), 0);
    for (size_t i = 0; i < tmpl.ops.size(); ++i)
        out += strf("  t%-3zu: %s\n", i,
                    renderMicroOp(tmpl, static_cast<uint32_t>(i))
                        .c_str());
    for (size_t i = 0; i < mk.ops.size(); ++i)
        out += strf("  %4zu: %-55s ; cost_from %u\n", i,
                    renderMicroOp(mk, static_cast<uint32_t>(i)).c_str(),
                    mk.costFrom[i]);
    return out;
}

} // namespace vcb::sim
