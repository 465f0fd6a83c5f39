/**
 * @file
 * Helpers shared by the bench drivers (src/suite/bench_*.cc): word <->
 * float/int conversion (buffers and host arrays are 32-bit word
 * vectors everywhere) and the comparisons every CPU-reference
 * validation reports through (the paper validates every benchmark
 * output against a known-good result, Sec. IV).
 */

#ifndef VCB_SUITE_WORKLOADS_H
#define VCB_SUITE_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace vcb::suite {

/** Reinterpret floats as their 32-bit word patterns. */
std::vector<uint32_t> wordsOf(const std::vector<float> &v);
/** Reinterpret int32s as 32-bit words. */
std::vector<uint32_t> wordsOf(const std::vector<int32_t> &v);
/** Inverse of wordsOf(float). */
std::vector<float> floatsOf(const std::vector<uint32_t> &w);
/** Inverse of wordsOf(int32). */
std::vector<int32_t> intsOf(const std::vector<uint32_t> &w);

/**
 * Element-wise float comparison with relative+absolute tolerance.
 * @return empty string on success, else a description of the first
 *         mismatch.
 */
std::string compareFloats(const std::vector<float> &got,
                          const std::vector<float> &expect,
                          double rel_tol = 1e-4,
                          double abs_tol = 1e-5);

/** Exact element-wise integer comparison. */
std::string compareInts(const std::vector<int32_t> &got,
                        const std::vector<int32_t> &expect);

} // namespace vcb::suite

#endif // VCB_SUITE_WORKLOADS_H
