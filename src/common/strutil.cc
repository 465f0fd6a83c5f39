#include "common/strutil.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.h"

namespace vcb {

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
toLower(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
formatBytes(uint64_t bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double v = static_cast<double>(bytes);
    int u = 0;
    while (v >= 1024.0 && u < 4) {
        v /= 1024.0;
        ++u;
    }
    if (u == 0)
        return strprintf("%llu B", (unsigned long long)bytes);
    return strprintf("%.1f %s", v, units[u]);
}

std::string
formatNs(double ns)
{
    if (ns < 1e3)
        return strprintf("%.0f ns", ns);
    if (ns < 1e6)
        return strprintf("%.2f us", ns / 1e3);
    if (ns < 1e9)
        return strprintf("%.3f ms", ns / 1e6);
    return strprintf("%.4f s", ns / 1e9);
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

uint64_t
parseSize(const std::string &raw)
{
    std::string s = trim(raw);
    if (s.empty())
        fatal("parseSize: empty string");
    uint64_t mult = 1;
    char last = static_cast<char>(
        std::tolower(static_cast<unsigned char>(s.back())));
    if (last == 'k')
        mult = 1ull << 10;
    else if (last == 'm')
        mult = 1ull << 20;
    else if (last == 'g')
        mult = 1ull << 30;
    if (mult != 1)
        s.pop_back();
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        fatal("parseSize: cannot parse '%s'", raw.c_str());
    return v * mult;
}

uint64_t
parseCount(const char *flag, const std::string &value, uint64_t lo,
           uint64_t hi)
{
    // strtoull alone would skip leading blanks, wrap a leading '-' and
    // stop silently at the first non-digit.
    const bool digit_first =
        !value.empty() && std::isdigit(static_cast<unsigned char>(value[0]));
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (!digit_first || *end != '\0' || errno == ERANGE || v < lo || v > hi)
        fatal("invalid %s '%s' (want %llu..%llu)", flag, value.c_str(),
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    return v;
}

} // namespace vcb
