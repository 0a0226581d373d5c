#include "common/log.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace dr
{

namespace detail
{

bool &
quiet()
{
    static bool value = false;
    return value;
}

} // namespace detail

void
setQuiet(bool quiet)
{
    detail::quiet() = quiet;
}

void
flushStdout(const char *tool, const std::string &what)
{
    std::cout.flush();
    if (std::fflush(stdout) != 0 || std::ferror(stdout) || !std::cout)
        fatal(tool, ": writing the ", what, " to stdout failed: ",
              std::strerror(errno));
}

} // namespace dr
