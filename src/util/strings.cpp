#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace cesrm::util {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not universally available; use strtod on
  // a bounded copy.
  std::string copy(s);
  char* endp = nullptr;
  const double value = std::strtod(copy.c_str(), &endp);
  if (endp != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

std::string fmt_fixed(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

std::string fmt_count(std::uint64_t count) {
  std::string digits = std::to_string(count);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string fmt_duration_hms(double seconds) {
  const auto total = static_cast<std::int64_t>(std::llround(seconds));
  const std::int64_t h = total / 3600;
  const std::int64_t m = (total % 3600) / 60;
  const std::int64_t s = total % 60;
  std::ostringstream os;
  os << h << ':';
  if (m < 10) os << '0';
  os << m << ':';
  if (s < 10) os << '0';
  os << s;
  return os.str();
}

}  // namespace cesrm::util
