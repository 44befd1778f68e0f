// Leveled logger, silent by default.  The level gate is read once from the
// SOC_LOG environment variable (trace|debug|info|warn|error|off,
// case-insensitive; default warn).  Each line is rendered into one buffer
// and emitted with a single write(2) syscall, so lines from sweep worker
// processes sharing one stderr never interleave mid-line.  Callers that
// want simulated time in a line print it themselves.
#pragma once

#include <sstream>
#include <string>

namespace soc {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static LogLevel level();
  static void write(LogLevel lvl, const std::string& msg);
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
