// logging.hpp — leveled logging with a process-global threshold.
//
// Simulation code logs through CESRM_LOG(level) streams. The default
// threshold is kWarn so experiment binaries stay quiet; tests and examples
// raise it for debugging. Each simulator is single-threaded, but the
// parallel runner executes many simulators at once, so the threshold is
// atomic and line emission is serialized — concurrent workers never tear
// each other's lines.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace cesrm::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Returns/updates the global threshold; messages below it are dropped.
LogLevel log_threshold();
void set_log_threshold(LogLevel level);

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off"; nullopt on an
/// unknown spelling, so CLI front-ends can name the flag and list
/// log_level_spellings().
std::optional<LogLevel> try_parse_log_level(const std::string& name);

/// "trace, debug, info, warn, error, off" — for flag help and errors.
std::string log_level_spellings();

const char* log_level_name(LogLevel level);

namespace detail {
/// Terminal object: accumulates a message and emits it on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace cesrm::util

#define CESRM_LOG(level)                                      \
  if (static_cast<int>(level) <                               \
      static_cast<int>(::cesrm::util::log_threshold())) {     \
  } else                                                      \
    ::cesrm::util::detail::LogLine(level)

#define CESRM_LOG_DEBUG CESRM_LOG(::cesrm::util::LogLevel::kDebug)
#define CESRM_LOG_INFO CESRM_LOG(::cesrm::util::LogLevel::kInfo)
#define CESRM_LOG_WARN CESRM_LOG(::cesrm::util::LogLevel::kWarn)
#define CESRM_LOG_ERROR CESRM_LOG(::cesrm::util::LogLevel::kError)
