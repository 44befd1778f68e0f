#include "src/common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace soc {

namespace {

std::optional<std::size_t> parse_count(const std::string& name,
                                       const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  // strtoull skips blanks and negates a '-': demand a leading digit.
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "--%s: '%s' is not a non-negative integer\n",
                 name.c_str(), s.c_str());
    return std::nullopt;
  }
  return static_cast<std::size_t>(v);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (comma > start) out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::optional<std::size_t> CliArgs::get_count(const std::string& name,
                                              std::size_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_count(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CliArgs::get_list(const std::string& name,
                                           const std::string& fallback) const {
  return split_csv(get(name, fallback));
}

std::optional<std::vector<double>> CliArgs::get_double_list(
    const std::string& name, const std::string& fallback) const {
  std::vector<double> out;
  for (const std::string& s : get_list(name, fallback)) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s: '%s' is not a number\n", name.c_str(),
                   s.c_str());
      return std::nullopt;
    }
    out.push_back(v);
  }
  return out;
}

std::optional<std::vector<std::size_t>> CliArgs::get_size_list(
    const std::string& name, const std::string& fallback) const {
  std::vector<std::size_t> out;
  for (const std::string& s : get_list(name, fallback)) {
    const auto v = parse_count(name, s);
    if (!v.has_value()) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

}  // namespace soc
