/**
 * @file
 * Driver-side lowering of decoded kernels to a dense micro-op IR.
 *
 * The interpreter originally executed raw spirv::Insn records, paying
 * an opCost() table switch and a siteOfInsn[] indirection on every
 * instruction of every lane.  compileKernel now runs this lowering
 * pass once per kernel instead:
 *
 *  - operands are re-packed so everything the executor needs (memory
 *    site slot, builtin code, immediate) sits in the micro-op itself;
 *  - adjacent instruction pairs (compare+branch, address+access,
 *    multiply+add, divide+remainder) are fused into single micro-ops
 *    (never across branch targets);
 *  - per-op issue costs are folded into a suffix-sum table
 *    (costFrom[pc] = lane-cycles from pc to the end of its straight-
 *    line run), so the executor accumulates cycles once per control
 *    transfer instead of once per instruction;
 *  - a definite-assignment dataflow pass proves, when possible, that
 *    every register is written before it is read on all paths, letting
 *    the interpreter skip the per-workgroup register-file zero-fill.
 *
 * Lowering is observably invisible: output buffers, DispatchStats and
 * simulated kernelNs are bit-identical to direct Insn execution.  It
 * leans on the validator's guarantees (operand ranges, label targets
 * in range, LdPush inside the push block, terminal Ret/Br), which hold
 * for every module compileKernel accepts.
 */

#ifndef VCB_SIM_MICROOP_H
#define VCB_SIM_MICROOP_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/dispatch.h"
#include "spirv/opcodes.h"

namespace vcb::sim {

struct CompiledKernel;

/**
 * The pure ops: no memory, no statistics, no control, no traps.  Each
 * entry X(name, expr) gives the word r[a] receives from the operand
 * words x = r[b], y = r[c] and z = r[d], as the op's arity has them.
 * Every evaluator is generated from these lists — the lane-major and
 * op-major executors, the hoisted-template evaluator and the fused
 * CmpBr* family — so an op's meaning is written exactly once.
 */
#define VCB_UNARY_OPS(X)                                                  \
    X(INot, ~x)                                                           \
    X(INeg, 0u - x)                                                       \
    X(FAbs, fToBits(std::fabs(bitsToF(x))))                               \
    X(FNeg, fToBits(-bitsToF(x)))                                         \
    X(FSqrt, fToBits(std::sqrt(bitsToF(x))))                              \
    X(FExp, fToBits(std::exp(bitsToF(x))))                                \
    X(FLog, fToBits(std::log(bitsToF(x))))                                \
    X(FFloor, fToBits(std::floor(bitsToF(x))))                            \
    X(FSin, fToBits(std::sin(bitsToF(x))))                                \
    X(FCos, fToBits(std::cos(bitsToF(x))))                                \
    X(CvtSF, fToBits(static_cast<float>(bitsToS(x))))                     \
    X(CvtFS, cvtFSWord(x))

#define VCB_BINARY_OPS(X)                                                 \
    X(IAdd, x + y)                                                        \
    X(ISub, x - y)                                                        \
    X(IMul, x * y)                                                        \
    X(IMin, static_cast<uint32_t>(std::min(bitsToS(x), bitsToS(y))))      \
    X(IMax, static_cast<uint32_t>(std::max(bitsToS(x), bitsToS(y))))      \
    X(IAnd, x & y)                                                        \
    X(IOr, x | y)                                                         \
    X(IXor, x ^ y)                                                        \
    X(IShl, x << (y & 31))                                                \
    X(IShrU, x >> (y & 31))                                               \
    X(IShrS, static_cast<uint32_t>(bitsToS(x) >> (y & 31)))               \
    X(FAdd, fToBits(bitsToF(x) + bitsToF(y)))                             \
    X(FSub, fToBits(bitsToF(x) - bitsToF(y)))                             \
    X(FMul, fToBits(bitsToF(x) * bitsToF(y)))                             \
    X(FDiv, fToBits(bitsToF(x) / bitsToF(y)))                             \
    X(FMin, fToBits(std::fmin(bitsToF(x), bitsToF(y))))                   \
    X(FMax, fToBits(std::fmax(bitsToF(x), bitsToF(y))))                   \
    X(FPow, fToBits(std::pow(bitsToF(x), bitsToF(y))))

/** Binary compares writing 0 or 1, in spirv Op::IEq..Op::FGe order:
 *  the CmpBr* block and the spirv compares index each other. */
#define VCB_COMPARE_OPS(X)                                                \
    X(IEq, x == y)                                                        \
    X(INe, x != y)                                                        \
    X(ILt, bitsToS(x) < bitsToS(y))                                       \
    X(ILe, bitsToS(x) <= bitsToS(y))                                      \
    X(IGt, bitsToS(x) > bitsToS(y))                                       \
    X(IGe, bitsToS(x) >= bitsToS(y))                                      \
    X(ULt, x < y)                                                         \
    X(UGe, x >= y)                                                        \
    X(FEq, bitsToF(x) == bitsToF(y))                                      \
    X(FNe, bitsToF(x) != bitsToF(y))                                      \
    X(FLt, bitsToF(x) < bitsToF(y))                                       \
    X(FLe, bitsToF(x) <= bitsToF(y))                                      \
    X(FGt, bitsToF(x) > bitsToF(y))                                       \
    X(FGe, bitsToF(x) >= bitsToF(y))

#define VCB_TERNARY_OPS(X)                                                \
    X(FFma, fToBits(std::fma(bitsToF(x), bitsToF(y), bitsToF(z))))        \
    X(Select, x ? y : z)

/** Every pure op, through U (unary), B (binary, the compares last) or
 *  T (ternary). */
#define VCB_PURE_OPS(U, B, T)                                             \
    VCB_UNARY_OPS(U) VCB_BINARY_OPS(B) VCB_COMPARE_OPS(B) VCB_TERNARY_OPS(T)

/**
 * Micro-op opcodes.  Operand conventions (fields of MicroOp) are given
 * per op; `r[x]` is lane register x, `aux` is the 16-bit auxiliary
 * field.
 */
enum class MOp : uint16_t
{
    Const,     ///< r[a] = b                        (ConstI / ConstF)
    Mov,       ///< r[a] = r[b]
    LdBuiltin, ///< r[a] = builtin(aux)
    LdPush,    ///< r[a] = push[b]

#define VCB_MOP_ENUM(name, expr) name,
    VCB_PURE_OPS(VCB_MOP_ENUM, VCB_MOP_ENUM, VCB_MOP_ENUM)
#undef VCB_MOP_ENUM
    IDiv,      ///< r[a] = r[b] / r[c]; traps on a zero divisor
    IRem,      ///< r[a] = r[b] % r[c]; traps on a zero divisor

    LdBuf,     ///< r[a] = buf[b][r[c]]; site slot d
    StBuf,     ///< buf[a][r[b]] = r[c]; site slot d
    LdShared,  ///< r[a] = shared[r[b]]
    StShared,  ///< shared[r[a]] = r[b]
    AtomIAdd,  ///< r[a] = old; buf[b][r[c]] += r[d]; site slot e
    AtomIOr,
    AtomIMin,
    AtomIMax,

    Jmp,       ///< pc = a
    BrTrue,    ///< if (r[a]) pc = b
    BrFalse,   ///< if (!r[a]) pc = b
    /** Fused compare+branch family: r[a] = (r[b] <op> r[c]); branch to
     *  d when the result equals aux (the branch sense).  One micro-op
     *  per comparison so the executor needs no inner dispatch; order
     *  matches VCB_COMPARE_OPS. */
#define VCB_MOP_CMPBR_ENUM(name, expr) CmpBr##name,
    VCB_COMPARE_OPS(VCB_MOP_CMPBR_ENUM)
#undef VCB_MOP_CMPBR_ENUM
    /** Fused address+load: t = r[b] + r[c]; r[a] = t;
     *  r[d] = buf[aux][t]; site slot e. */
    IAddLd,
    /** Fused address+store: t = r[b] + r[c]; r[a] = t;
     *  buf[aux][t] = r[d]; site slot e. */
    IAddSt,
    /** Fused multiply-add (array indexing): t = r[b] * r[c];
     *  r[a] = t; r[d] = t + r[e]. */
    IMulAdd,
    /** Fused add pair: t = r[b] + r[c]; r[a] = t; r[d] = t + r[e]. */
    IAddAdd,
    /** Fused address+shared load: t = r[b] + r[c]; r[a] = t;
     *  r[d] = shared[t]. */
    IAddLdSh,
    /** Fused address+shared store: t = r[b] + r[c]; r[a] = t;
     *  shared[t] = r[d]. */
    IAddStSh,
    /** Fused index+shared load (t1 = r[b] * r[c]; r[a] = t1;
     *  t2 = t1 + r[e]; r[d] = t2; r[aux] = shared[t2]) — the
     *  row*pitch+col staging idiom of the stencil/LU kernels. */
    MulAddLdSh,
    /** As MulAddLdSh but storing: shared[t2] = r[aux]. */
    MulAddStSh,
    /** Fused float multiply-add: t = r[b] * r[c]; r[a] = t;
     *  r[d] = aux&1 ? t + r[e] : r[e] + t.  Operand order is preserved
     *  exactly (FP NaN payloads are not swap-safe). */
    FMulFAdd,
    /** Fused divide+remainder on identical operands (one host
     *  division): r[a] = r[b] / r[c]; r[d] = r[b] % r[c]. */
    IDivRem,

    /** The one superop: a counted loop [CmpBrILt head; six-op body;
     *  Jmp back] whose body matches a SuperKind template, fused into
     *  one record (aux indexes MicroKernel::supers).  Every executor
     *  runs the whole loop to completion per lane — trip counts may
     *  differ per lane without ever surfacing as divergence, since all
     *  lanes reconverge at the exit pc.  Terminator (ends with a
     *  transfer to the exit pc). */
    SuperLoop,

    Barrier,
    Ret,
    Count
};

/**
 * SuperLoop body templates: the suite's dominant counted-loop bodies,
 * each written twice — once in the lane-major reference executor, once
 * span-wide (Interpreter::execSuper).  The recognizer (lowerKernel
 * pass 3.5) only fuses a body whose scratch registers are referenced
 * nowhere else in the kernel, so the templates can keep intermediates
 * in host registers instead of round-tripping every value through the
 * lane register file.
 */
enum class SuperKind : uint16_t
{
    /**
     * Squared-distance reduction step (kmeans_assign's inner loop):
     *   IMulAdd; LdBuf; IAddLd; FSub; FMulFAdd; IAdd
     *   a1 = r[0]*r[1] + r[2];   x = buf[buf0][a1]   (site[0])
     *   a2 = r[3] + r[4];        y = buf[buf1][a2]   (site[1])
     *   d = x - y;  t = d*d;
     *   r[5] = aux&1 ? t + r[5] : r[5] + t;
     *   r[6] = r[7] + r[8];
     */
    SqDistStep,
    /**
     * Shared-memory dot-product step (lud_internal's inner loop):
     *   MulAddLdSh; IMulAdd; IAddLdSh; FFma; Mov; IAdd
     *   v1 = shared[r[0]*r[1] + r[2]];
     *   v2 = shared[r[6] + (r[3]*r[4] + r[5])];
     *   r[8] = fma(v1, v2, r[7]);
     *   r[9] = r[10] + r[11];
     */
    ShDotStep,
    Count
};

/**
 * One fused counted loop (MOp::SuperLoop): the body template plus its
 * distilled register/buffer/site operands (layout per SuperKind
 * above), and the loop `while (int r[loopB] < int r[loopC])` around
 * it.  The executor runs the body to completion per lane, then writes
 * 0 to the head's flag register r[loopFlag] (the value the final,
 * failing test produces) and transfers to exitPc.  Per iteration it
 * charges headCost + bodyCost lane-cycles — the costFrom charges the
 * unfused stream pays per trip around the back edge — so laneCycles
 * stay bit-identical for any per-lane trip count.
 */
struct SuperOp
{
    SuperKind kind = SuperKind::Count;
    /** FMulFAdd-style operand-order bit(s), template-specific. */
    uint16_t aux = 0;
    uint32_t r[12] = {};
    uint16_t buf[2] = {};
    uint16_t site[2] = {};
    uint32_t loopFlag = 0;
    uint32_t loopB = 0;
    uint32_t loopC = 0;
    uint32_t exitPc = 0;
    uint32_t headCost = 0;
    uint32_t bodyCost = 0;
};

/** Symbolic name of a SuperLoop body template ("SqDistStep", ...). */
const char *superKindName(SuperKind kind);

/** One packed micro-op.  Field meaning depends on `op` (see MOp). */
struct MicroOp
{
    MOp op = MOp::Ret;
    /** CmpBr*: branch sense (0/1); IAddLd/IAddSt: buffer binding;
     *  MulAddLdSh/MulAddStSh: load dst / store src register;
     *  LdBuiltin: spirv::Builtin code. */
    uint16_t aux = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
    uint32_t d = 0;
    uint32_t e = 0;
};

/** The executable form of a kernel, produced by lowerKernel(). */
struct MicroKernel
{
    std::vector<MicroOp> ops;
    /**
     * Dispatch-uniform entry ops hoisted out of the per-lane stream:
     * pure ops from the kernel's entry run whose inputs are dispatch
     * constants (immediates, push words, size builtins) and whose
     * destination registers are written exactly once.  The interpreter
     * evaluates them once per dispatch (prepare()) and scatters the
     * resulting register values into every lane, instead of executing
     * them per lane per workgroup.  Their issue cost is folded into
     * costFrom at the entry pc, so laneCycles are unchanged.
     */
    std::vector<MicroOp> templateOps;
    /** Registers templateOps write, in write order (scatter list). */
    std::vector<uint32_t> templateDsts;
    /**
     * costFrom[pc]: ALU issue cost (lane-cycles) of executing from pc
     * through the terminator of its straight-line run.  The executor
     * adds this once per control transfer; the sum over a lane's
     * execution equals the per-instruction sum of the original stream
     * exactly (fused ops carry the summed cost of their parts).
     */
    std::vector<uint32_t> costFrom;
    /** Summed issue cost of templateOps, folded into costFrom at the
     *  entry pc so hoisting never changes laneCycles. */
    uint32_t hoistedCost = 0;
    /** Definite assignment proven: every register is written before it
     *  is read on all paths, so the per-workgroup register zero-fill
     *  is unobservable and may be skipped. */
    bool skipRegZeroInit = false;
    /** Any control transfer (Jmp/BrTrue/BrFalse/CmpBr*): kernels
     *  without one are straight-line and eligible for the trace tier. */
    bool hasBranches = false;
    /** Any atomic op (lane order observable: block tiers must bail). */
    bool hasAtomics = false;
    /** Number of instruction pairs fused (diagnostics/tests). */
    uint32_t fusedPairs = 0;
    /** Fused loop records, indexed by MOp::SuperLoop's aux. */
    std::vector<SuperOp> supers;
};

/** Lowering knobs; the defaults are what compileKernel lowers with
 *  unless a test sets setCompileLowerOptions().  Tests disable fusion
 *  to assert fused/unfused equivalence. */
struct LowerOptions
{
    /** Adjacent instruction pairs and triples into fused micro-ops
     *  (the CmpBr* block and IAddLd through IDivRem). */
    bool fusePairs = true;
    /** Counted loops around a SuperKind body into MOp::SuperLoop. */
    bool fuseSuperops = true;

    static LowerOptions noFusion() { return {false, false}; }
};

/** Populate k.micro from k.insns/k.siteOfInsn.  The module must have
 *  passed validation (compileKernel guarantees this). */
void lowerKernel(CompiledKernel &k, const LowerOptions &opt = {});

/** ALU issue cost per original opcode, in lane-cycles (the timing
 *  model's per-instruction cost table; baked into MicroKernel). */
uint8_t opCost(spirv::Op op);

/** Symbolic name of a micro-op ("IAddLd", "CmpBrULt", ...). */
const char *mopName(MOp op);

/** Tier policy from lowering metadata: Trace for straight-line
 *  branch/atomic-free kernels, Block otherwise.  The interpreter
 *  upgrades to Instrumented when robust access demands it (or a
 *  sampled workgroup meets a forced lane-major tier), and
 *  setExecutorOverride overrides the result in tests. */
ExecTier chooseExecTier(const MicroKernel &mk);

/** The tier a non-instrumented dispatch of this kernel actually runs:
 *  chooseExecTier unless setExecutorOverride forces one
 *  (a forced Trace degrades to Block when the body is not
 *  straight-line). */
ExecTier effectiveExecTier(const MicroKernel &mk);

/** The options compileKernel lowers with (default-constructed unless
 *  set).  The compile-cache key folds them in, so programs lowered
 *  under different options never alias. */
LowerOptions compileLowerOptions();

/** Test hook: set the options compileKernel lowers with —
 *  LowerOptions::noFusion() replays workloads unfused, {} restores the
 *  default. */
void setCompileLowerOptions(const LowerOptions &opt);

/** One rendered micro-op with symbolic operands ("r3 = r1 + r2"). */
std::string renderMicroOp(const MicroKernel &mk, uint32_t pc);

/** Full listing of a lowered kernel: hoisted template ops, then the
 *  per-lane stream with pc, rendered operands and costFrom.  Used by
 *  vcb_disasm and the disasm round-trip tests. */
std::string disassembleMicro(const MicroKernel &mk);

// --- shared executor helpers ----------------------------------------------

inline float
bitsToF(uint32_t v)
{
    return std::bit_cast<float>(v);
}

inline uint32_t
fToBits(float v)
{
    return std::bit_cast<uint32_t>(v);
}

inline int32_t
bitsToS(uint32_t v)
{
    return static_cast<int32_t>(v);
}

/** Signed 32-bit division of two register words.  SPIR-V leaves
 *  INT_MIN / -1 undefined and x86's idiv traps on it; the simulator
 *  defines it as the two's-complement wrap (INT_MIN).  The caller has
 *  rejected a zero divisor. */
inline uint32_t
sdivWrap(uint32_t x, uint32_t y)
{
    return y == ~0u ? 0u - x
                    : static_cast<uint32_t>(bitsToS(x) / bitsToS(y));
}

/** Signed 32-bit remainder, with INT_MIN % -1 defined as 0 (see
 *  sdivWrap).  The caller has rejected a zero divisor. */
inline uint32_t
sremWrap(uint32_t x, uint32_t y)
{
    return y == ~0u ? 0u : static_cast<uint32_t>(bitsToS(x) % bitsToS(y));
}

/** CvtFS: a float word truncated to a signed 32-bit word.  C++ leaves
 *  the conversion undefined for NaN, infinities and values outside
 *  [-2^31, 2^31); the simulator defines them as INT_MIN (0x80000000),
 *  the value x86's cvttss2si returns for all of them. */
inline uint32_t
cvtFSWord(uint32_t x)
{
    const float v = bitsToF(x);
    return v >= -0x1p31f && v < 0x1p31f
               ? static_cast<uint32_t>(static_cast<int32_t>(v))
               : 0x80000000u;
}

} // namespace vcb::sim

#endif // VCB_SIM_MICROOP_H
