/**
 * @file
 * Small string helpers used by the disassembler, reports and CLIs.
 */

#ifndef VCB_COMMON_STRUTIL_H
#define VCB_COMMON_STRUTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace vcb {

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

/** True if s starts with prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Lower-case ASCII copy. */
std::string toLower(const std::string &s);

/** Human-readable byte count, e.g. "4.0 MiB". */
std::string formatBytes(uint64_t bytes);

/** Human-readable simulated duration from nanoseconds, e.g. "12.4 us". */
std::string formatNs(double ns);

/** Pad/truncate to exactly width columns (left-aligned). */
std::string padRight(const std::string &s, size_t width);

/** Pad to at least width columns (right-aligned). */
std::string padLeft(const std::string &s, size_t width);

/** Parse a non-negative integer with optional K/M/G suffix (powers of 2). */
uint64_t parseSize(const std::string &s);

/** Parse the value of a numeric command-line flag: the whole of `value`
 *  must be a decimal integer in [lo, hi]; fatal, naming `flag`,
 *  otherwise. */
uint64_t parseCount(const char *flag, const std::string &value, uint64_t lo,
                    uint64_t hi);

} // namespace vcb

#endif // VCB_COMMON_STRUTIL_H
