#ifndef DR_COMMON_FORMAT_HPP
#define DR_COMMON_FORMAT_HPP

/**
 * @file
 * Exact text for numbers, shared by every writer whose output is read
 * back: the stats dumps and the config dump.
 */

#include <iosfwd>

namespace dr
{

/**
 * One value, exactly: integral values (every counter) print as integers,
 * other doubles as the shortest text that parses back to the same bits
 * (at most max_digits10 digits). `nonFinite`, if given, replaces NaN and
 * inf (JSON has no literal for them and passes `null`).
 */
std::ostream &writeNumber(std::ostream &out, double v,
                          const char *nonFinite = nullptr);

} // namespace dr

#endif // DR_COMMON_FORMAT_HPP
