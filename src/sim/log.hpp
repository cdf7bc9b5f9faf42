#pragma once
// Minimal leveled logger for the simulator.
//
// The logger is intentionally tiny: a global level, a sink (std::ostream*),
// and printf-free streaming via std::ostringstream. Components log through
// free functions so that headers stay light.

#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>

namespace daelite::sim {

enum class LogLevel : int {
  kNone = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
  kTrace = 5,
};

/// Global log configuration. Thread-safe: level and sink are atomics and
/// write() serializes the stream insertion, because components of
/// concurrent batch jobs (sim/parallel.hpp) log from the job threads.
/// Each kernel itself is single-threaded. set_sink() still must not
/// destroy the old sink while other threads are logging — swap sinks only
/// when the kernels using the logger are quiescent (tests do this between
/// runs).
class Log {
 public:
  static LogLevel level();
  static void set_level(LogLevel lvl);

  /// Redirect output (default: std::cerr). Pass nullptr to silence.
  static void set_sink(std::ostream* sink);
  static std::ostream* sink();

  static bool enabled(LogLevel lvl) { return static_cast<int>(lvl) <= static_cast<int>(level()) && sink() != nullptr; }

  /// Emit one line: "[LVL] who: message\n".
  static void write(LogLevel lvl, std::string_view who, std::string_view msg);
};

namespace detail {
template <typename... Args>
void log_fmt(LogLevel lvl, std::string_view who, Args&&... args) {
  if (!Log::enabled(lvl)) return;
  std::ostringstream os;
  (os << ... << args);
  Log::write(lvl, who, os.str());
}
} // namespace detail

template <typename... Args>
void log_error(std::string_view who, Args&&... args) {
  detail::log_fmt(LogLevel::kError, who, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(std::string_view who, Args&&... args) {
  detail::log_fmt(LogLevel::kWarn, who, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(std::string_view who, Args&&... args) {
  detail::log_fmt(LogLevel::kInfo, who, std::forward<Args>(args)...);
}
template <typename... Args>
void log_debug(std::string_view who, Args&&... args) {
  detail::log_fmt(LogLevel::kDebug, who, std::forward<Args>(args)...);
}
template <typename... Args>
void log_trace(std::string_view who, Args&&... args) {
  detail::log_fmt(LogLevel::kTrace, who, std::forward<Args>(args)...);
}

} // namespace daelite::sim
