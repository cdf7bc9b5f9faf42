#include "sim/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace daelite::sim {

namespace {
// Level and sink are read on every logging call from whichever thread is
// dispatching components — concurrent batch jobs each run their own
// kernel on a job thread — so they are atomics, and the actual
// stream insertion is serialized: most ostreams (ostringstream capture
// sinks in tests, file sinks) are not safe for concurrent insertion, and
// even for std::cerr the mutex keeps whole lines intact.
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<std::ostream*> g_sink{&std::cerr};
std::mutex g_write_mu;

const char* level_tag(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kTrace: return "TRACE";
    default: return "     ";
  }
}
} // namespace

LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }
void Log::set_level(LogLevel lvl) { g_level.store(lvl, std::memory_order_relaxed); }
void Log::set_sink(std::ostream* sink) { g_sink.store(sink, std::memory_order_release); }
std::ostream* Log::sink() { return g_sink.load(std::memory_order_acquire); }

void Log::write(LogLevel lvl, std::string_view who, std::string_view msg) {
  std::lock_guard<std::mutex> lock(g_write_mu);
  std::ostream* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  (*sink) << '[' << level_tag(lvl) << "] " << who << ": " << msg << '\n';
}

} // namespace daelite::sim
