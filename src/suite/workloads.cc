#include "suite/workloads.h"

#include <bit>
#include <cmath>
#include <cstddef>

#include "common/logging.h"

namespace vcb::suite {

std::vector<uint32_t>
wordsOf(const std::vector<float> &v)
{
    std::vector<uint32_t> w(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        w[i] = std::bit_cast<uint32_t>(v[i]);
    return w;
}

std::vector<uint32_t>
wordsOf(const std::vector<int32_t> &v)
{
    std::vector<uint32_t> w(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        w[i] = static_cast<uint32_t>(v[i]);
    return w;
}

std::vector<float>
floatsOf(const std::vector<uint32_t> &w)
{
    std::vector<float> v(w.size());
    for (size_t i = 0; i < w.size(); ++i)
        v[i] = std::bit_cast<float>(w[i]);
    return v;
}

std::vector<int32_t>
intsOf(const std::vector<uint32_t> &w)
{
    std::vector<int32_t> v(w.size());
    for (size_t i = 0; i < w.size(); ++i)
        v[i] = static_cast<int32_t>(w[i]);
    return v;
}

std::string
compareFloats(const std::vector<float> &got,
              const std::vector<float> &expect, double rel_tol,
              double abs_tol)
{
    if (got.size() != expect.size())
        return strprintf("size mismatch: got %zu, expected %zu",
                         got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
        double g = got[i], e = expect[i];
        if (std::isnan(g) != std::isnan(e))
            return strprintf("[%zu]: got %g, expected %g (NaN mismatch)",
                             i, g, e);
        if (std::isnan(g))
            continue;
        double err = std::abs(g - e);
        double bound = abs_tol + rel_tol * std::abs(e);
        if (err > bound)
            return strprintf("[%zu]: got %.7g, expected %.7g (err %.3g "
                             "> bound %.3g)",
                             i, g, e, err, bound);
    }
    return "";
}

std::string
compareInts(const std::vector<int32_t> &got,
            const std::vector<int32_t> &expect)
{
    if (got.size() != expect.size())
        return strprintf("size mismatch: got %zu, expected %zu",
                         got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != expect[i])
            return strprintf("[%zu]: got %d, expected %d", i, got[i],
                             expect[i]);
    }
    return "";
}

} // namespace vcb::suite
