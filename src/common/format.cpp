#include "common/format.hpp"

#include <charconv>
#include <cmath>
#include <ostream>

namespace dr
{

std::ostream &
writeNumber(std::ostream &out, double v, const char *nonFinite)
{
    if (nonFinite && !std::isfinite(v)) {
        out << nonFinite;
    } else if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
        out << static_cast<long long>(v);
    } else {
        char buf[32];
        const char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        out.write(buf, end - buf);
    }
    return out;
}

} // namespace dr
