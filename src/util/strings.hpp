// strings.hpp — small string utilities shared by serialization, CLI
// parsing and report formatting. Kept dependency-free.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cesrm::util {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" → {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Strict integer / double parsing: the whole trimmed token must parse.
std::optional<std::int64_t> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// Formats a double with `digits` fixed decimals (report helper).
std::string fmt_fixed(double v, int digits);

/// Formats `count` with thousands separators: 1234567 → "1,234,567".
std::string fmt_count(std::uint64_t count);

/// Renders seconds as "h:mm:ss" (Table 1 duration column format).
std::string fmt_duration_hms(double seconds);

}  // namespace cesrm::util
