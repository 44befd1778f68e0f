// Leveled logger routed through the observability layer's sink rules:
// level-gated (SOC_LOG env / Logger::set_level), rate-limited, prefixed
// with simulated time, and line-atomic.
//
// Simulations are silent by default; raise the level to trace protocol
// decisions.  Each line is rendered into one buffer — including a
// `[t=<sim µs>]` prefix when a simulator is driving the calling thread
// (Simulator::run_until installs a time source; see set_time_source) —
// and emitted with a single write(2) syscall, so lines from concurrent
// sweep worker *processes* sharing one stderr never interleave
// mid-line.  A token bucket (200-line burst, 100 lines/s wall-clock
// refill) drops floods; the first line after a dropped stretch is
// prefixed with the suppressed count, so the log says what it lost.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace soc {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static LogLevel level();
  static void set_level(LogLevel lvl);
  static void write(LogLevel lvl, const std::string& msg);

  /// Parse "trace|debug|info|warn|error|off" (case-insensitive).
  static LogLevel parse_level(const std::string& s);

  /// Install a per-thread simulated-time source (the callback returns
  /// µs, or a negative value for "no sim time").  The simulator sets
  /// this around its run loop; pass {nullptr, nullptr} to restore the
  /// bare prefix.  Returns the previous source so callers can nest.
  struct TimeSource {
    std::int64_t (*fn)(const void*) = nullptr;
    const void* ctx = nullptr;
  };
  static TimeSource set_time_source(TimeSource src);
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel lvl) : lvl_(lvl) {}
  ~LogLine() { Logger::write(lvl_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace soc

#define SOC_LOG(lvl)                                 \
  if (::soc::LogLevel::lvl < ::soc::Logger::level()) \
    ;                                                \
  else                                               \
    ::soc::detail::LogLine(::soc::LogLevel::lvl)
