#include "src/common/logging.hpp"

#include <strings.h>
#include <unistd.h>

#include <cstdlib>

namespace soc {

namespace {

constexpr const char* kNames[] = {"TRACE", "DEBUG", "INFO",
                                  "WARN",  "ERROR", "OFF"};

LogLevel level_from_env() {
  const char* env = std::getenv("SOC_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  for (int i = 0; i < static_cast<int>(LogLevel::kOff); ++i) {
    if (strcasecmp(env, kNames[i]) == 0) return static_cast<LogLevel>(i);
  }
  return LogLevel::kOff;
}

}  // namespace

LogLevel Logger::level() {
  static const LogLevel lvl = level_from_env();
  return lvl;
}

void Logger::write(LogLevel lvl, const std::string& msg) {
  if (lvl < level()) return;
  const std::string line =
      std::string("[") + kNames[static_cast<int>(lvl)] + "] " + msg + '\n';
  // One write(2) per line: atomic with respect to other processes
  // appending to the same stderr, unlike stdio which may flush a line in
  // pieces.
  const ssize_t ignored = ::write(2, line.data(), line.size());
  (void)ignored;
}

}  // namespace soc
