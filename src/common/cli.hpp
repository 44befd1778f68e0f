// Tiny command-line flag parser shared by benches and examples.
// Accepts --name=value, --name value, and boolean --name forms.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace soc {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Strict count: the whole token must be a non-negative decimal integer
  /// that fits a size_t, else nullopt with a message on stderr (a '-1'
  /// must not wrap to a huge count, nor '2x' read as 2).
  [[nodiscard]] std::optional<std::size_t> get_count(
      const std::string& name, std::size_t fallback) const;

  // Comma-separated list forms (sweep grids: --lambdas 0.3,0.5).  The
  // fallback is given in the same comma-separated syntax; empty elements
  // are skipped, so a trailing comma is harmless.  The numeric forms are
  // strict — any element that does not parse in full (a ';' typo, a
  // negative count, trailing junk) returns nullopt with a message on
  // stderr, because a silently truncated grid axis would merge wrong
  // sweep numbers.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::optional<std::vector<double>> get_double_list(
      const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::optional<std::vector<std::size_t>> get_size_list(
      const std::string& name, const std::string& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace soc
