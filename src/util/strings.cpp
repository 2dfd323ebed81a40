#include "util/strings.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace harmony {

namespace {
bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string format_double(double v) {
  // Shortest representation that still round-trips: try increasing
  // precision until parsing back reproduces the exact value.
  char buf[64];
  for (int precision : {10, 15, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    char* end = nullptr;
    if (std::strtod(buf, &end) == v && end == buf + std::strlen(buf)) break;
  }
  return std::string(buf);
}

double parse_double(std::string_view s) {
  const std::string tmp(trim(s));
  if (tmp.empty()) throw Error("empty number");
  char* end = nullptr;
  const double v = std::strtod(tmp.c_str(), &end);
  if (end != tmp.c_str() + tmp.size()) {
    throw Error("invalid number: '" + tmp + "'");
  }
  return v;
}

long parse_long(std::string_view s) {
  const std::string tmp(trim(s));
  if (tmp.empty()) throw Error("empty integer");
  char* end = nullptr;
  const long v = std::strtol(tmp.c_str(), &end, 10);
  if (end != tmp.c_str() + tmp.size()) {
    throw Error("invalid integer: '" + tmp + "'");
  }
  return v;
}

}  // namespace harmony
