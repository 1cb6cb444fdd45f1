// Small string utilities (join/split/trim/case/format) used project-wide.

#ifndef DTA_COMMON_STRINGS_H_
#define DTA_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace dta {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Joins elements with `sep`, using operator<< to render each element.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out << sep;
    first = false;
    out << p;
  }
  return out.str();
}

// Splits on a single character; empty tokens are kept.
std::vector<std::string> StrSplit(std::string_view s, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Renders a double compactly ("12", "12.5", "0.033").
std::string CompactDouble(double v);

// Parses one complete, finite decimal literal (optional sign and exponent)
// into `*out`. Unlike strtod alone it refuses "inf"/"nan", hex floats,
// leading whitespace, trailing bytes and out-of-range values, so numbers
// read from flags and documents cannot slip NaN past a range check.
bool StrictDouble(const std::string& v, double* out);
// The same for plain decimal integers (a leading '-' only for the signed
// reader): the strto* family alone accepts leading whitespace, a '+',
// partially consumed values and, in the unsigned reader, negative values
// by wraparound. Out-of-range values are refused, never clamped.
bool StrictUint64(const std::string& v, uint64_t* out);
bool StrictInt64(const std::string& v, int64_t* out);

}  // namespace dta

#endif  // DTA_COMMON_STRINGS_H_
