#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dta {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view StrTrim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string CompactDouble(double v) {
  if (std::floor(v) == v && std::fabs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  std::string s = StrFormat("%.6g", v);
  return s;
}

bool StrictDouble(const std::string& v, double* out) {
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  if (v.empty()) return false;
  const char c0 = v[0];
  if (c0 != '-' && c0 != '.' && !is_digit(c0)) return false;
  for (char c : v) {
    // Decimal literals with an optional exponent only: no "inf"/"nan", no
    // hex floats, no embedded whitespace.
    if (!is_digit(c) && c != '.' && c != 'e' && c != 'E' && c != '+' &&
        c != '-') {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (errno == ERANGE || end != v.c_str() + v.size()) return false;
  *out = parsed;
  return true;
}

namespace {

bool AllDigits(const std::string& v, size_t start) {
  if (v.size() == start) return false;
  for (size_t i = start; i < v.size(); ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
  }
  return true;
}

}  // namespace

bool StrictUint64(const std::string& v, uint64_t* out) {
  if (!AllDigits(v, 0)) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (errno == ERANGE || end != v.c_str() + v.size()) return false;
  *out = static_cast<uint64_t>(parsed);
  return true;
}

bool StrictInt64(const std::string& v, int64_t* out) {
  if (!AllDigits(v, !v.empty() && v[0] == '-' ? 1 : 0)) return false;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (errno == ERANGE || end != v.c_str() + v.size()) return false;
  *out = static_cast<int64_t>(parsed);
  return true;
}

}  // namespace dta
