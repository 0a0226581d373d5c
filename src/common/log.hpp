#ifndef DR_COMMON_LOG_HPP
#define DR_COMMON_LOG_HPP

/**
 * @file
 * Error and status reporting in the gem5 tradition: panic() for simulator
 * bugs (aborts), fatal() for user/configuration errors (exit(1)), warn()
 * and inform() for status messages.
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace dr
{

namespace detail
{

/** Fold a variadic argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Whether warn()/inform() output is suppressed (used by tests). */
bool &quiet();

} // namespace detail

/**
 * Report an internal simulator bug and abort. Use when a condition can
 * only arise from a defect in the simulator itself.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::cerr << "panic: " << detail::concat(std::forward<Args>(args)...)
              << std::endl;
    std::abort();
}

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::cerr << "fatal: " << detail::concat(std::forward<Args>(args)...)
              << std::endl;
    std::exit(1);
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (!detail::quiet()) {
        std::cerr << "warn: " << detail::concat(std::forward<Args>(args)...)
                  << std::endl;
    }
}

/** Informative status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (!detail::quiet()) {
        std::cout << "info: " << detail::concat(std::forward<Args>(args)...)
                  << std::endl;
    }
}

/** Suppress or re-enable warn()/inform() output. */
void setQuiet(bool quiet);

/**
 * Flush stdout. If any write to it failed (say, to a full disk), fatal
 * with `tool`, `what` was being written and the error, instead of a
 * silent exit 0 with nothing written.
 */
void flushStdout(const char *tool, const std::string &what);

} // namespace dr

#endif // DR_COMMON_LOG_HPP
