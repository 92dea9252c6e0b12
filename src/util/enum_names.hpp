// enum_names.hpp — one shared spelling table for CLI-facing enums.
//
// Every enum that crosses a command-line flag (expedition policy, cache
// policy, protocol, ...) wants the same three operations: value → name,
// the comma-joined list of accepted spellings for --help text and errors,
// and a parse returning nullopt on an unknown spelling, so the front end
// can print "bad --flag: 'x' (valid: ...)" and exit 1. Declare the table
// once and get all three:
//
//   constexpr util::EnumNames<Color, 2> kColorNames{
//       {{{Color::kRed, "red"}, {Color::kBlue, "blue"}}}};
//   kColorNames.name(Color::kRed);      // "red"
//   kColorNames.try_parse("mauve");     // nullopt
//   kColorNames.joined_names();         // "red, blue"
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace cesrm::util {

template <typename E>
struct EnumSpelling {
  E value;
  const char* name;
};

template <typename E, std::size_t N>
class EnumNames {
 public:
  static_assert(N >= 1, "an enum spelling table cannot be empty");

  constexpr explicit EnumNames(std::array<EnumSpelling<E>, N> spellings)
      : spellings_(spellings) {}

  /// The canonical spelling of `value` ("?" for values not in the table).
  constexpr const char* name(E value) const {
    for (const auto& s : spellings_)
      if (s.value == value) return s.name;
    return "?";
  }

  /// All accepted spellings, comma-joined — for errors and --help.
  std::string joined_names() const {
    std::string out;
    for (const auto& s : spellings_) {
      if (!out.empty()) out += ", ";
      out += s.name;
    }
    return out;
  }

  /// Parses a spelling; nullopt when `name` matches no table entry.
  constexpr std::optional<E> try_parse(std::string_view name) const {
    for (const auto& s : spellings_)
      if (name == s.name) return s.value;
    return std::nullopt;
  }

 private:
  std::array<EnumSpelling<E>, N> spellings_;
};

}  // namespace cesrm::util
