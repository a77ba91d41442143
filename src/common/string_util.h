// Small string helpers shared by the data layer and the metrics.

#ifndef DD_COMMON_STRING_UTIL_H_
#define DD_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dd {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Splits on runs of whitespace, dropping empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view s);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// True when `s` parses fully as a decimal floating-point number.
bool ParseDouble(std::string_view s, double* out);

// Escapes `text` for inclusion in a JSON string: quotes, backslashes,
// \n, \r, \t, and \u00XX for the other control characters.
std::string JsonEscape(const std::string& text);

// Formats with printf semantics into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dd

#endif  // DD_COMMON_STRING_UTIL_H_
