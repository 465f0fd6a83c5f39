#include "sim/microop.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <utility>

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

bool
isCmpBr(MOp op)
{
    return op >= MOp::CmpBrIEq && op <= MOp::CmpBrFGe;
}

/** The branch-target field of Jmp, BrTrue/BrFalse and CmpBr*, or null
 *  for every other op (a SuperLoop's exit pc lives in its SuperOp).
 *  Every scan and remap of branch targets goes through here. */
const uint32_t *
branchTarget(const MicroOp &op)
{
    switch (op.op) {
      case MOp::Jmp: return &op.a;
      case MOp::BrTrue:
      case MOp::BrFalse: return &op.b;
      default: return isCmpBr(op.op) ? &op.d : nullptr;
    }
}

uint32_t *
branchTarget(MicroOp &op)
{
    return const_cast<uint32_t *>(branchTarget(std::as_const(op)));
}

/** is_target[pc]: does some branch of `ops` land on pc? */
std::vector<uint8_t>
branchTargets(const std::vector<MicroOp> &ops)
{
    std::vector<uint8_t> is_target(ops.size(), 0);
    for (const MicroOp &op : ops)
        if (const uint32_t *t = branchTarget(op))
            is_target[*t] = 1;
    return is_target;
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

/** A case label per op of one of microop.h's op lists. */
#define VCB_MOP_CASE(name, expr) case MOp::name:

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
      case MOp::IMulAdd:
      case MOp::IAddAdd:
      case MOp::IAddLd:
      case MOp::IAddLdSh:
      case MOp::MulAddStSh:
      case MOp::FMulFAdd:
      case MOp::IDivRem:
        fn(op.a);
        fn(op.d);
        break;
      case MOp::MulAddLdSh:
        fn(op.a);
        fn(op.d);
        fn(op.aux);
        break;
      case MOp::SuperLoop:
        // SuperLoops are formed after every forEachDst consumer runs;
        // their writes live in the side table, unreachable from here.
        VCB_ASSERT(false, "forEachDst on a SuperLoop");
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
      VCB_UNARY_OPS(VCB_MOP_CASE)
      case MOp::LdShared:
        fn(op.b);
        break;
      VCB_TERNARY_OPS(VCB_MOP_CASE)
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
      case MOp::IAddLd:
      case MOp::IAddLdSh:
      case MOp::IDivRem:
        fn(op.b);
        fn(op.c);
        break;
      case MOp::IAddSt:
      case MOp::IAddStSh:
        fn(op.b);
        fn(op.c);
        fn(op.d);
        break;
      case MOp::IMulAdd:
      case MOp::IAddAdd:
      case MOp::MulAddLdSh:
      case MOp::FMulFAdd:
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
      case MOp::SuperLoop:
        VCB_ASSERT(false, "forEachSrc on a SuperLoop");
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
      VCB_PURE_OPS(VCB_MOP_CASE, VCB_MOP_CASE, VCB_MOP_CASE)
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
 * their own sequence (e.g. IMulAdd's add consuming its product) —
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
      VCB_UNARY_OPS(VCB_MOP_CASE)
        return u(op.b);
      VCB_TERNARY_OPS(VCB_MOP_CASE)
        return u(op.b) && u(op.c) && u(op.d);
      case MOp::IMulAdd:
      case MOp::IAddAdd:
        // b and c are read before a is written; e after.
        return u(op.b) && u(op.c) && (u(op.e) || op.e == op.a);
      default:
        // Binary ALU / compare: sources in b and c.
        return u(op.b) && u(op.c);
    }
}

#undef VCB_MOP_CASE

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
    const std::vector<uint8_t> is_target = branchTargets(mk.ops);

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
    for (MicroOp &op : new_ops)
        if (uint32_t *t = branchTarget(op))
            *t = *t == 0 ? 0 : *t - hoisted;
    mk.ops = std::move(new_ops);
    cost = std::move(new_cost);
    mk.hoistedCost = hoisted_cost;
}

// --- SuperLoop recognition (pass 3.5) -------------------------------------

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

/** Registers a body template references (prefix of SuperOp::r). */
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

/** Micro-ops a SuperLoop replaces: head, six-op body, back edge. */
constexpr size_t kLoopLen = 8;

/**
 * Match a fused counted loop at mk.ops[i..i+8): head `CmpBrILt` that
 * exits when the test fails, a six-op body matching a SuperKind
 * template, and a Jmp back to the head.  Control may enter only at the
 * head and must exit past the back edge, and the head's flag register
 * must be none of the loop's own operands — then skipping its
 * per-iteration writes is invisible.
 */
bool
matchSuperLoop(const MicroKernel &mk, const std::vector<uint8_t> &is_target,
               size_t i, SuperOp &sup)
{
    if (i + kLoopLen > mk.ops.size())
        return false;
    const MicroOp &head = mk.ops[i];
    const MicroOp &back = mk.ops[i + kLoopLen - 1];
    if (head.op != MOp::CmpBrILt || head.aux != 0 || back.op != MOp::Jmp ||
        back.a != i || (head.d >= i && head.d < i + kLoopLen))
        return false;
    for (size_t j = i + 1; j < i + kLoopLen; ++j)
        if (is_target[j])
            return false;
    if (!matchSqDistStep(mk, i + 1, sup) && !matchShDotStep(mk, i + 1, sup))
        return false;
    bool flag_free = head.a != head.b && head.a != head.c;
    for (size_t r = 0, cnt = superRegCount(sup.kind); r < cnt; ++r)
        flag_free &= head.a != sup.r[r];
    if (!flag_free)
        return false;
    sup.loopFlag = head.a;
    sup.loopB = head.b;
    sup.loopC = head.c;
    sup.exitPc = head.d; // old index; the caller remaps it
    return true;
}

/**
 * Pass 3.5: fuse each [CmpBrILt head; SuperKind body; Jmp back] loop
 * into one MOp::SuperLoop terminator that runs the counted loop to
 * completion per lane — the executor pays one dispatch per LOOP
 * instead of eight per ITERATION, and per-lane trip counts never
 * surface as divergence (all lanes reconverge at the exit pc).  Runs
 * after hoisting, so the entry analysis sees the plain stream.  The
 * record keeps the head's cost as its arrival charge and carries
 * headCost + bodyCost per iteration (the costFrom charges the unfused
 * stream pays per trip around the back edge), so laneCycles stay
 * bit-identical.
 */
void
fuseSuperLoops(MicroKernel &mk, std::vector<uint8_t> &cost)
{
    const size_t n = mk.ops.size();
    const std::vector<uint8_t> is_target = branchTargets(mk.ops);
    std::vector<MicroOp> new_ops;
    std::vector<uint8_t> new_cost;
    std::vector<uint32_t> remap(n, 0);
    new_ops.reserve(n);
    new_cost.reserve(n);
    for (size_t i = 0; i < n;) {
        remap[i] = static_cast<uint32_t>(new_ops.size());
        SuperOp sup;
        if (!matchSuperLoop(mk, is_target, i, sup)) {
            new_ops.push_back(mk.ops[i]);
            new_cost.push_back(cost[i]);
            ++i;
            continue;
        }
        sup.headCost = cost[i];
        for (size_t j = i + 1; j < i + kLoopLen; ++j) {
            sup.bodyCost += cost[j];
            remap[j] = remap[i];
        }
        MicroOp op;
        op.op = MOp::SuperLoop;
        op.aux = static_cast<uint16_t>(mk.supers.size());
        mk.supers.push_back(sup);
        new_ops.push_back(op);
        new_cost.push_back(cost[i]);
        i += kLoopLen;
    }
    if (mk.supers.empty())
        return;
    for (MicroOp &op : new_ops)
        if (uint32_t *t = branchTarget(op))
            *t = remap[*t];
    for (SuperOp &sup : mk.supers)
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

        if (opt.fusePairs && i + 1 < n && !is_target[i + 1]) {
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
            if (in.op >= Op::IEq && in.op <= Op::FGe &&
                (nx.op == Op::BrTrue || nx.op == Op::BrFalse) &&
                nx.a == in.a) {
                static_assert(
                    static_cast<int>(MOp::CmpBrFGe) -
                            static_cast<int>(MOp::CmpBrIEq) ==
                        static_cast<int>(Op::FGe) -
                            static_cast<int>(Op::IEq),
                    "CmpBr block out of sync with the spirv compares");
                const MOp cmp_br = static_cast<MOp>(
                    static_cast<int>(MOp::CmpBrIEq) +
                    (static_cast<int>(in.op) - static_cast<int>(Op::IEq)));
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
                if (nx.op == Op::LdBuf && nx.c == in.a) {
                    fused({MOp::IAddLd, static_cast<uint16_t>(nx.b),
                           in.a, in.b, in.c, nx.a, nx_site});
                    continue;
                }
                if (nx.op == Op::StBuf && nx.b == in.a) {
                    fused({MOp::IAddSt, static_cast<uint16_t>(nx.a),
                           in.a, in.b, in.c, nx.c, nx_site});
                    continue;
                }
                if (nx.op == Op::LdShared && nx.b == in.a) {
                    fused({MOp::IAddLdSh, 0, in.a, in.b, in.c, nx.a, 0});
                    continue;
                }
                if (nx.op == Op::StShared && nx.a == in.a) {
                    fused({MOp::IAddStSh, 0, in.a, in.b, in.c, nx.b, 0});
                    continue;
                }
                if (nx.op == Op::IAdd && (nx.b == in.a || nx.c == in.a)) {
                    const uint32_t other = nx.b == in.a ? nx.c : nx.b;
                    fused({MOp::IAddAdd, 0, in.a, in.b, in.c, nx.a,
                           other});
                    continue;
                }
            }
            if (in.op == Op::IMul && nx.op == Op::IAdd &&
                (nx.b == in.a || nx.c == in.a)) {
                // t = b*c feeding an add: addition commutes, so the
                // other operand's position doesn't matter.
                const uint32_t other = nx.b == in.a ? nx.c : nx.b;
                // Triple: the add's result feeding a shared-memory
                // access (the row*pitch+col staging idiom).  Three
                // source ops collapse into one micro-op.
                if (i + 2 < n && !is_target[i + 2]) {
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
            // Float multiply-add (operand order preserved: aux bit 0
            // says the product is the left operand).
            if (in.op == Op::FMul && nx.op == Op::FAdd &&
                (nx.b == in.a || nx.c == in.a)) {
                const uint16_t left = nx.b == in.a ? 1 : 0;
                const uint32_t other = left ? nx.c : nx.b;
                fused({MOp::FMulFAdd, left, in.a, in.b, in.c, nx.a, other});
                continue;
            }
            if (in.op == Op::IDiv && nx.op == Op::IRem && nx.b == in.b &&
                nx.c == in.c && in.a != in.b && in.a != in.c) {
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

#define VCB_LOWER_SAME(name, ...)                                         \
          case Op::name:                                                  \
            emit({MOp::name, 0, in.a, in.b, in.c, in.d, 0}, c);           \
            break;
          VCB_PURE_OPS(VCB_LOWER_SAME, VCB_LOWER_SAME, VCB_LOWER_SAME)
          VCB_LOWER_SAME(IDiv) VCB_LOWER_SAME(IRem)
          VCB_LOWER_SAME(LdShared) VCB_LOWER_SAME(StShared)
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
    for (MicroOp &op : mk.ops)
        if (uint32_t *t = branchTarget(op))
            *t = micro_of[*t];

    mk.skipRegZeroInit = provesWriteBeforeRead(k);

    // Pass 3: hoist dispatch-uniform entry ops into the register
    // template (sound only with write-before-read proven).
    hoistUniformEntry(mk, cost, k.module.regCount);

    // Pass 3.5: counted loops around a template body fuse into
    // run-to-completion SuperLoop records.
    if (opt.fuseSuperops)
        fuseSuperLoops(mk, cost);

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
        mk.hasBranches |= branchTarget(op) != nullptr;
        mk.hasAtomics |= op.op == MOp::AtomIAdd || op.op == MOp::AtomIOr ||
                         op.op == MOp::AtomIMin || op.op == MOp::AtomIMax;
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
/** Forced tier (setExecutorOverride); Count = auto. */
std::atomic<ExecTier> g_forced_tier{ExecTier::Count};
/** The options compileKernel lowers with (setCompileLowerOptions). */
std::mutex g_lower_mtx;
LowerOptions g_lower;
} // namespace

ExecTier
executorOverride()
{
    return g_forced_tier.load(std::memory_order_relaxed);
}

void
setExecutorOverride(ExecTier t)
{
    g_forced_tier.store(t, std::memory_order_relaxed);
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
#define VCB_NAME(name, expr) #name,
#define VCB_CMPBR_NAME(name, expr) "CmpBr" #name,
        "Const", "Mov", "LdBuiltin", "LdPush",
        VCB_PURE_OPS(VCB_NAME, VCB_NAME, VCB_NAME)
        "IDiv", "IRem",
        "LdBuf", "StBuf", "LdShared", "StShared",
        "AtomIAdd", "AtomIOr", "AtomIMin", "AtomIMax",
        "Jmp", "BrTrue", "BrFalse",
        VCB_COMPARE_OPS(VCB_CMPBR_NAME)
        "IAddLd", "IAddSt", "IMulAdd", "IAddAdd",
        "IAddLdSh", "IAddStSh", "MulAddLdSh", "MulAddStSh",
        "FMulFAdd", "IDivRem", "SuperLoop",
        "Barrier", "Ret",
#undef VCB_NAME
#undef VCB_CMPBR_NAME
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

/** Comparison symbols in IEq..FGe order, which CmpBrIEq..CmpBrFGe
 *  share: one table serves plain and fused compares. */
constexpr const char *kCmpSymbol[] = {"==", "!=", "<s", "<=s", ">s",
                                      ">=s", "<u", ">=u", "==", "!=",
                                      "<", "<=", ">", ">="};
static_assert(std::size(kCmpSymbol) ==
                  static_cast<size_t>(MOp::FGe) -
                      static_cast<size_t>(MOp::IEq) + 1,
              "compare symbol table out of sync with MOp");

/** Infix symbol of a simple binary micro-op, or null. */
const char *
binSymbol(MOp op)
{
    if (op >= MOp::IEq && op <= MOp::FGe)
        return kCmpSymbol[static_cast<size_t>(op) -
                          static_cast<size_t>(MOp::IEq)];
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
      default: return nullptr;
    }
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
                    kCmpSymbol[static_cast<size_t>(o.op) -
                               static_cast<size_t>(MOp::CmpBrIEq)],
                    o.c, o.d, o.aux);
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
      case MOp::IDivRem:
        return strf("r%u = r%u / r%u; r%u = r%u %% r%u", o.a, o.b, o.c,
                    o.d, o.b, o.c);
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
