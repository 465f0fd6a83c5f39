/**
 * @file
 * cfd — CFD solver (Unstructured Grid / Fluid Dynamics).
 *
 * A fixed number of solver iterations, each running three dependent
 * kernels (step factor, flux, time step).  Vulkan must bind three
 * compute pipelines per iteration inside its command buffer — the
 * overhead the paper identifies as eroding cfd's command-buffer
 * savings; iteration count does not grow with input size, so neither
 * does the speedup (Sec. V-A2).  The body is uniform and pure-device,
 * so cfd sweeps all three submission strategies.
 *
 * Mobile: the paper reports the cfd datasets do not fit on either
 * mobile platform, so hard-cap mobile parts skip it wholesale.  Parts
 * modeling UVM oversubscription (uvm_oversubscription > 1) page the
 * working set into the shared pool instead and run it, paying
 * first-touch migration and the oversubscribed-bandwidth derate.
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

constexpr uint32_t iterations = 20; // Rodinia runs 2000; scaled
constexpr float rkFactor = 0.8f;

struct Mesh
{
    uint32_t n = 0;
    std::vector<float> variables;  // 5n (SoA)
    std::vector<float> areas;      // n
    std::vector<int32_t> neighbors; // 4n (SoA; -1 = boundary)
    std::vector<float> normals;    // 4n
};

Mesh
generateMesh(uint32_t n, uint64_t seed)
{
    Rng rng(seed);
    Mesh m;
    m.n = n;
    m.variables.resize(5ull * n);
    m.areas.resize(n);
    m.neighbors.resize(4ull * n);
    m.normals.resize(4ull * n);
    uint32_t width = 1;
    while (width * width < n)
        ++width;
    for (uint32_t i = 0; i < n; ++i) {
        m.variables[i] = rng.nextFloat(1.0f, 2.0f);               // rho
        m.variables[n + i] = rng.nextFloat(-0.5f, 0.5f);          // mx
        m.variables[2ull * n + i] = rng.nextFloat(-0.5f, 0.5f);   // my
        m.variables[3ull * n + i] = rng.nextFloat(-0.5f, 0.5f);   // mz
        m.variables[4ull * n + i] = rng.nextFloat(2.0f, 3.0f);    // E
        m.areas[i] = rng.nextFloat(0.5f, 2.0f);
        int64_t cand[4] = {int64_t(i) - 1, int64_t(i) + 1,
                           int64_t(i) - width, int64_t(i) + width};
        for (uint32_t nb = 0; nb < 4; ++nb) {
            m.neighbors[uint64_t(nb) * n + i] =
                (cand[nb] >= 0 && cand[nb] < int64_t(n))
                    ? static_cast<int32_t>(cand[nb])
                    : -1;
            m.normals[uint64_t(nb) * n + i] = rng.nextFloat(0.5f, 1.5f);
        }
    }
    return m;
}

/** CPU reference mirroring the three kernels' float order: the final
 *  variables and the last iteration's step factors and fluxes. */
struct Reference
{
    std::vector<float> var, sf, flux;
};

Reference
referenceCfd(const Mesh &mesh)
{
    uint32_t n = mesh.n;
    std::vector<float> var = mesh.variables;
    std::vector<float> sf(n), flux(5ull * n);
    for (uint32_t it = 0; it < iterations; ++it) {
        for (uint32_t i = 0; i < n; ++i) {
            float rho = std::fmax(var[i], 1e-6f);
            float mx = var[n + i], my = var[2ull * n + i],
                  mz = var[3ull * n + i];
            float e = var[4ull * n + i];
            float m2 = std::fma(mx, mx, std::fma(my, my, mz * mz));
            float v2 = m2 / (rho * rho);
            float p = 0.4f * (e - 0.5f * (rho * v2));
            p = std::fmax(p, 1e-6f);
            float c = std::sqrt(1.4f * p / rho);
            float speed = std::sqrt(v2);
            float area = std::fmax(mesh.areas[i], 1e-6f);
            sf[i] = 0.5f / (std::sqrt(area) * (speed + c));
        }
        for (uint32_t i = 0; i < n; ++i) {
            float acc[5] = {0, 0, 0, 0, 0};
            for (uint32_t nb = 0; nb < 4; ++nb) {
                int32_t j = mesh.neighbors[uint64_t(nb) * n + i];
                if (j < 0)
                    continue;
                float w = mesh.normals[uint64_t(nb) * n + i];
                float weight =
                    (0.12f * std::sqrt(w)) / (1.0f + w);
                for (uint32_t v = 0; v < 5; ++v) {
                    float diff = var[uint64_t(v) * n + uint32_t(j)] -
                                 var[uint64_t(v) * n + i];
                    acc[v] = std::fma(diff, weight, acc[v]);
                }
            }
            for (uint32_t v = 0; v < 5; ++v)
                flux[uint64_t(v) * n + i] = acc[v];
        }
        for (uint32_t i = 0; i < n; ++i) {
            float factor = rkFactor * sf[i];
            for (uint32_t v = 0; v < 5; ++v)
                var[uint64_t(v) * n + i] =
                    std::fma(factor, flux[uint64_t(v) * n + i],
                             var[uint64_t(v) * n + i]);
        }
    }
    return {std::move(var), std::move(sf), std::move(flux)};
}

enum BufferIx : size_t { B_VAR, B_AREA, B_NB, B_NORM, B_SF, B_FLUX };
enum HostIx : size_t { H_VAR, H_SF, H_FLUX };

Workload
makeWorkload(Mesh m)
{
    auto in = std::make_shared<const Mesh>(std::move(m));
    const Mesh &mesh = *in;
    uint32_t n = mesh.n;

    Workload w;
    w.name = "cfd";
    w.kernels = {kernels::buildCfdStepFactor(),
                 kernels::buildCfdComputeFlux(),
                 kernels::buildCfdTimeStep()};
    w.buffers = {{5ull * n * 4, wordsOf(mesh.variables)},
                 {uint64_t(n) * 4, wordsOf(mesh.areas)},
                 {4ull * n * 4, wordsOf(mesh.neighbors)},
                 {4ull * n * 4, wordsOf(mesh.normals)},
                 {uint64_t(n) * 4, {}},
                 {5ull * n * 4, {}}};
    w.host = {std::vector<uint32_t>(5ull * n), std::vector<uint32_t>(n),
              std::vector<uint32_t>(5ull * n)};

    uint32_t groups = (uint32_t)ceilDiv(n, 128);
    // Three pipeline binds per iteration — cfd's Vulkan tax.
    w.body = {dispatchStep(0, groups, 1, 1, {pw(n)},
                           {{0, B_VAR}, {1, B_AREA}, {2, B_SF}}),
              barrierStep(),
              dispatchStep(1, groups, 1, 1, {pw(n)},
                           {{0, B_VAR},
                            {1, B_NB},
                            {2, B_NORM},
                            {3, B_FLUX}}),
              barrierStep(),
              dispatchStep(2, groups, 1, 1, {pw(n), pwF(rkFactor)},
                           {{0, B_VAR}, {1, B_SF}, {2, B_FLUX}}),
              barrierStep(),
              syncStep()};
    w.iterations = iterations;
    w.epilogue = {readbackStep(B_VAR, H_VAR)};
    w.inspect = {readbackStep(B_SF, H_SF), readbackStep(B_FLUX, H_FLUX)};
    w.preferred = SubmitStrategy::Batched;
    w.validate = [in](const HostArrays &h) {
        Reference ref = referenceCfd(*in);
        std::string err = compareFloats(floatsOf(h[H_VAR]), ref.var);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_SF]), ref.sf);
        if (err.empty())
            err = compareFloats(floatsOf(h[H_FLUX]), ref.flux);
        return err;
    };
    return w;
}

class CfdBenchmark : public Benchmark
{
  public:
    std::string name() const override { return "cfd"; }
    std::string fullName() const override { return "CFD Solver"; }
    std::string dwarf() const override { return "Unstructured Grid"; }
    std::string domain() const override { return "Fluid Dynamics"; }

    std::vector<SizeConfig> desktopSizes() const override
    {
        // Paper: fvcorr domains with 97K / 193K / 232K elements.
        return {{"97K", {24576}}, {"193K", {49152}}, {"232K", {61440}}};
    }
    std::vector<SizeConfig> mobileSizes() const override
    {
        // Working sets sized to overflow the modeled mobile device
        // heaps: UVM parts page them in (with first-touch migration
        // and oversubscription derates); hard-cap parts skip.
        return {{"97K", {24576}}, {"193K", {49152}}};
    }
    std::string
    mobileSkipReason(const sim::DeviceSpec &dev) const override
    {
        if (dev.uvmPagingEnabled())
            return "";
        return "dataset exceeds mobile device-local heap (paper: 'cfd "
               "could not fit on both platforms')";
    }

    Workload workload(const SizeConfig &cfg) const override
    {
        return makeWorkload(
            generateMesh(static_cast<uint32_t>(cfg.params[0]),
                         workloadSeed(name(), cfg)));
    }
};

} // namespace

const Benchmark *
makeCfd()
{
    static CfdBenchmark b;
    return &b;
}

} // namespace vcb::suite
