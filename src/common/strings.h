#ifndef REVERE_COMMON_STRINGS_H_
#define REVERE_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace revere {

/// Splits `input` on any single occurrence of `delim`. Empty pieces are
/// kept unless `skip_empty` is true.
std::vector<std::string> Split(std::string_view input, char delim,
                               bool skip_empty = false);

/// Splits `input` on every character contained in `delims`.
std::vector<std::string> SplitAny(std::string_view input,
                                  std::string_view delims,
                                  bool skip_empty = true);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view s);
/// ASCII upper-casing (locale independent).
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);
/// True if `needle` occurs in `haystack`.
bool Contains(std::string_view haystack, std::string_view needle);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Formats `v` with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision = 3);

/// `prefix` followed by `n` in decimal ("k" and 7 give "k7"), built by
/// appending: GCC 12 at -O3 warns about `"k" + std::to_string(n)`
/// (-Wrestrict, a false positive inside the inlined insert).
std::string Numbered(std::string_view prefix, uint64_t n);

/// The shortest text that std::strtod reads back as exactly `v`: the
/// number syntax of network configs and fuzz seed files.
std::string FormatDoubleExact(double v);

/// `s` in double quotes, with `"` and `\` backslash-escaped and a
/// newline written as `\n`, so the value stays on one line: the value
/// syntax of fuzz seed files and of network-config `row` lines, which
/// Tokenize reads back.
std::string QuoteValue(std::string_view s);

/// Splits one line into space-separated tokens, honoring QuoteValue's
/// quoted strings (which may hold spaces and be empty). ParseError on
/// an unterminated quote.
Result<std::vector<std::string>> Tokenize(std::string_view line);

}  // namespace revere

#endif  // REVERE_COMMON_STRINGS_H_
