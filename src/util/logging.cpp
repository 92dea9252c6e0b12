#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

#include "util/enum_names.hpp"

namespace cesrm::util {

namespace {
// Workers in the parallel runner read the threshold on every CESRM_LOG and
// may log concurrently; relaxed atomic reads keep the disabled path cheap
// and the mutex keeps emitted lines whole (never torn mid-line).
std::atomic<LogLevel> g_threshold{LogLevel::kWarn};
std::mutex g_emit_mutex;

constexpr EnumNames<LogLevel, 6> kLogLevelNames{
    {{{LogLevel::kTrace, "trace"},
      {LogLevel::kDebug, "debug"},
      {LogLevel::kInfo, "info"},
      {LogLevel::kWarn, "warn"},
      {LogLevel::kError, "error"},
      {LogLevel::kOff, "off"}}}};
}

LogLevel log_threshold() { return g_threshold.load(std::memory_order_relaxed); }
void set_log_threshold(LogLevel level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

std::optional<LogLevel> try_parse_log_level(const std::string& name) {
  return kLogLevelNames.try_parse(name);
}

std::string log_level_spellings() { return kLogLevelNames.joined_names(); }

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

namespace detail {

LogLine::LogLine(LogLevel level) : level_(level) {}

LogLine::~LogLine() {
  os_ << '\n';
  const std::string line =
      std::string("[") + log_level_name(level_) + "] " + os_.str();
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace detail
}  // namespace cesrm::util
