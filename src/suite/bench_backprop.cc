/**
 * @file
 * backprop — neural-network training step (Unstructured Grid / Deep
 * Learning).
 *
 * Two kernels with a host-side reduction between them (layer forward
 * partial sums -> host sigmoid/delta -> weight adjustment), as in
 * Rodinia.  Only two launches: all APIs perform similarly (the paper
 * groups backprop with nn and nw).  The layer-forward kernel uses a
 * shared-memory tree reduction — this is one of the two benchmarks
 * whose driver builds fail on the Nexus (both OpenCL and Vulkan),
 * reproduced via the device profiles.
 */

#include "suite/benchmark.h"

#include <cmath>
#include <memory>

#include "common/mathutil.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "suite/workloads.h"

namespace vcb::suite {

namespace {

constexpr uint32_t hid = kernels::bpHidden; // 16
constexpr float learningRate = 0.3f;

struct Net
{
    uint32_t n = 0; ///< input units; the kernels guard a partial block
    std::vector<float> input;   // n
    std::vector<float> weights; // n * 16
    std::vector<float> w2;      // 16 (hidden -> output)

    /** 16-input blocks of the layer-forward reduction. */
    uint32_t blocks() const { return (uint32_t)ceilDiv(n, 16); }
};

Net
generateNet(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    Net net;
    net.n = n;
    net.input.resize(net.n);
    net.weights.resize(uint64_t(net.n) * hid);
    net.w2.resize(hid);
    for (auto &v : net.input)
        v = rng.nextFloat(0.0f, 1.0f);
    for (auto &v : net.weights)
        v = rng.nextFloat(-0.5f, 0.5f);
    for (auto &v : net.w2)
        v = rng.nextFloat(-0.5f, 0.5f);
    return net;
}

float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/**
 * Host phase between the two kernels: reduce partial sums, forward to
 * the output unit, back-propagate the error into per-hidden deltas.
 * Identical code runs in the reference and in the workload's host
 * callback, on every API.
 */
std::vector<float>
hostDeltas(const Net &net, const std::vector<float> &partial)
{
    std::vector<float> hidden(hid, 0.0f);
    for (uint32_t blk = 0; blk < net.blocks(); ++blk)
        for (uint32_t j = 0; j < hid; ++j)
            hidden[j] += partial[blk * hid + j];
    for (uint32_t j = 0; j < hid; ++j)
        hidden[j] = sigmoid(hidden[j]);

    float out = 0.0f;
    for (uint32_t j = 0; j < hid; ++j)
        out += hidden[j] * net.w2[j];
    out = sigmoid(out);

    const float target = 0.5f;
    float delta_out = (target - out) * out * (1.0f - out);
    std::vector<float> delta(hid);
    for (uint32_t j = 0; j < hid; ++j)
        delta[j] = hidden[j] * (1.0f - hidden[j]) * delta_out *
                   net.w2[j];
    return delta;
}

/** CPU reference: partial sums in the same blocked order as the
 *  kernel's tree reduction, then the weight update. */
void
reference(const Net &net, std::vector<float> *partial_out,
          std::vector<float> *weights_out)
{
    const uint32_t blocks = net.blocks();
    std::vector<float> partial(uint64_t(blocks) * hid, 0.0f);
    for (uint32_t blk = 0; blk < blocks; ++blk) {
        for (uint32_t j = 0; j < hid; ++j) {
            // Tree order: pairwise over 16 inputs, past-the-end inputs
            // contributing zero.
            float v[16];
            for (uint32_t i = 0; i < 16; ++i) {
                uint32_t gi = blk * 16 + i;
                v[i] = gi < net.n ? net.input[gi] *
                                        net.weights[uint64_t(gi) * hid + j]
                                  : 0.0f;
            }
            for (uint32_t s = 8; s >= 1; s /= 2)
                for (uint32_t i = 0; i < s; ++i)
                    v[i] += v[i + s];
            partial[blk * hid + j] = v[0];
        }
    }
    std::vector<float> delta = hostDeltas(net, partial);
    std::vector<float> weights = net.weights;
    for (uint32_t i = 0; i < net.n; ++i)
        for (uint32_t j = 0; j < hid; ++j)
            weights[uint64_t(i) * hid + j] = std::fma(
                learningRate * delta[j], net.input[i],
                weights[uint64_t(i) * hid + j]);
    if (partial_out)
        *partial_out = std::move(partial);
    if (weights_out)
        *weights_out = std::move(weights);
}

enum BufferIx : size_t { B_IN, B_W, B_PART, B_DELTA };
enum HostIx : size_t { H_PART, H_DELTA, H_W };

Workload
makeWorkload(Net n)
{
    auto in = std::make_shared<const Net>(std::move(n));
    const Net &net = *in;

    const uint32_t blocks = net.blocks();
    uint64_t in_bytes = uint64_t(net.n) * 4;
    uint64_t w_bytes = uint64_t(net.n) * hid * 4;
    uint64_t part_bytes = uint64_t(blocks) * hid * 4;

    Workload w;
    w.name = "backprop";
    w.kernels = {kernels::buildBackpropLayerForward(),
                 kernels::buildBackpropAdjustWeights()};
    w.buffers = {{in_bytes, wordsOf(net.input)},
                 {w_bytes, wordsOf(net.weights)},
                 {part_bytes, {}},
                 {hid * 4, {}}};
    w.host = {std::vector<uint32_t>(uint64_t(blocks) * hid),
              std::vector<uint32_t>(hid),
              std::vector<uint32_t>(uint64_t(net.n) * hid)};

    w.body = {
        dispatchStep(0, blocks, 1, 1, {pw(net.n)},
                     {{0, B_IN}, {1, B_W}, {2, B_PART}}),
        syncStep(),
        readbackStep(B_PART, H_PART),
        hostStep([in](HostArrays &h) {
            h[H_DELTA] = wordsOf(hostDeltas(*in, floatsOf(h[H_PART])));
        }),
        uploadStep(B_DELTA, H_DELTA),
        dispatchStep(1,
                     (uint32_t)ceilDiv(uint64_t(net.n) * hid, 256), 1, 1,
                     {pw(net.n), pwF(learningRate)},
                     {{0, B_IN}, {1, B_DELTA}, {2, B_W}}),
        syncStep(),
    };
    w.epilogue = {readbackStep(B_W, H_W)};
    w.preferred = SubmitStrategy::RecordOnce;
    w.validate = [in](const HostArrays &h) {
        std::vector<float> ref_partial, ref_weights;
        reference(*in, &ref_partial, &ref_weights);
        std::string err = compareFloats(floatsOf(h[H_PART]), ref_partial);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_W]), ref_weights);
        return err;
    };
    return w;
}

class BackpropBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "backprop"; }
    std::string fullName() const override { return "Back Propagation"; }
    std::string dwarf() const override { return "Unstructured Grid"; }
    std::string domain() const override { return "Deep Learning"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: 4K / 64K / 256K input units.
        return {{"4K", {4096}}, {"64K", {65536}}, {"256K", {262144}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        return {{"64K", {16384}}, {"256K", {65536}}};
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateNet(static_cast<uint32_t>(cfg.params[0]),
                        workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeBackprop()
{
    static BackpropBenchmark b;
    return &b;
}

} // namespace vcb::suite
