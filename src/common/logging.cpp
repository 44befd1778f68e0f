#include "src/common/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SOC_LOG_HAVE_WRITE 1
#endif

namespace soc {

namespace {

std::atomic<int> g_level{-1};  // -1 = uninitialized
std::mutex g_write_mutex;

// Token bucket, wall-clock refill.  Guarded by g_write_mutex.
constexpr double kBurstLines = 200.0;
constexpr double kLinesPerSec = 100.0;
double g_tokens = kBurstLines;
std::uint64_t g_last_refill_ns = 0;
std::uint64_t g_suppressed_run = 0;  // since the last emitted line

// Per-thread simulated-time source (installed by Simulator::run_until).
thread_local Logger::TimeSource g_time_source;

const char* level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

int initial_level() {
  if (const char* env = std::getenv("SOC_LOG")) {
    return static_cast<int>(Logger::parse_level(env));
  }
  return static_cast<int>(LogLevel::kWarn);
}

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Take one token; false means the line is dropped.  Caller holds
/// g_write_mutex.
bool take_token() {
  const std::uint64_t now = mono_ns();
  if (g_last_refill_ns == 0) g_last_refill_ns = now;
  const double elapsed_s =
      static_cast<double>(now - g_last_refill_ns) * 1e-9;
  g_tokens = std::min(kBurstLines, g_tokens + elapsed_s * kLinesPerSec);
  g_last_refill_ns = now;
  if (g_tokens < 1.0) return false;
  g_tokens -= 1.0;
  return true;
}

void emit_line(const std::string& line) {
#if SOC_LOG_HAVE_WRITE
  // One write(2) per line: atomic with respect to other processes
  // appending to the same stderr (sweep workers), unlike stdio which
  // may flush a line in pieces.
  ssize_t ignored = ::write(2, line.data(), line.size());
  (void)ignored;
#else
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
#endif
}

}  // namespace

LogLevel Logger::level() {
  int lvl = g_level.load(std::memory_order_relaxed);
  if (lvl < 0) {
    lvl = initial_level();
    g_level.store(lvl, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(lvl);
}

void Logger::set_level(LogLevel lvl) {
  g_level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

Logger::TimeSource Logger::set_time_source(TimeSource src) {
  const TimeSource prev = g_time_source;
  g_time_source = src;
  return prev;
}

void Logger::write(LogLevel lvl, const std::string& msg) {
  if (lvl < level()) return;

  // Render outside observation: prefix with sim time when the calling
  // thread is inside a simulator run.
  char prefix[96];
  int n = 0;
  const TimeSource src = g_time_source;
  std::int64_t sim_us = -1;
  if (src.fn != nullptr) sim_us = src.fn(src.ctx);
  if (sim_us >= 0) {
    n = std::snprintf(prefix, sizeof(prefix), "[%s] [t=%" PRId64 "us] ",
                      level_name(lvl), sim_us);
  } else {
    n = std::snprintf(prefix, sizeof(prefix), "[%s] ", level_name(lvl));
  }
  if (n < 0) n = 0;

  const std::scoped_lock lock(g_write_mutex);
  if (!take_token()) {
    ++g_suppressed_run;
    return;
  }

  std::string line;
  line.reserve(static_cast<std::size_t>(n) + msg.size() + 48);
  line.assign(prefix, static_cast<std::size_t>(n));
  if (g_suppressed_run > 0) {
    char sup[48];
    const int m = std::snprintf(sup, sizeof(sup),
                                "[suppressed %" PRIu64 " lines] ",
                                g_suppressed_run);
    if (m > 0) line.append(sup, static_cast<std::size_t>(m));
    g_suppressed_run = 0;
  }
  line += msg;
  line += '\n';
  emit_line(line);
}

LogLevel Logger::parse_level(const std::string& s) {
  std::string t = s;
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (t == "trace") return LogLevel::kTrace;
  if (t == "debug") return LogLevel::kDebug;
  if (t == "info") return LogLevel::kInfo;
  if (t == "warn") return LogLevel::kWarn;
  if (t == "error") return LogLevel::kError;
  return LogLevel::kOff;
}

}  // namespace soc
