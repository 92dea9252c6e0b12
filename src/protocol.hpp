// protocol.hpp — the one protocol-selection enum of the repository.
//
// Every layer that picks a loss-recovery protocol — the trace-driven
// harness::ExperimentConfig, the loopback netio::NetioRunConfig, the bench
// sweeps and the CLI — selects from this single enum. (The ns-3/ccns3Sim
// experience is that a reusable simulator reproduction needs exactly one
// such switch, shared by every front end.)
#pragma once

#include <optional>
#include <string>

#include "util/enum_names.hpp"

namespace cesrm {

/// Which protocol recovers losses for a member / an experiment. LMS, the
/// router-assisted baseline of §3.3/§5, needs router replier state
/// (lms::LmsDirectory), which only the simulated network provides.
enum class Protocol { kSrm, kCesrm, kLms };

/// Human-readable name, as used in tables, reports, and JSON output.
constexpr const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kSrm: return "SRM";
    case Protocol::kCesrm: return "CESRM";
    case Protocol::kLms: return "LMS";
  }
  return "?";
}

namespace detail {
inline constexpr util::EnumNames<Protocol, 3> kProtocolNames{
    {{{Protocol::kSrm, "srm"}, {Protocol::kCesrm, "cesrm"},
      {Protocol::kLms, "lms"}}}};
}  // namespace detail

/// The accepted CLI spellings ("srm", "cesrm", "lms"), comma-joined.
inline const char* protocol_names() {
  static const std::string joined = detail::kProtocolNames.joined_names();
  return joined.c_str();
}

/// Parses "srm" / "cesrm" / "lms"; nullopt otherwise.
inline std::optional<Protocol> try_parse_protocol(const std::string& name) {
  return detail::kProtocolNames.try_parse(name);
}

}  // namespace cesrm
